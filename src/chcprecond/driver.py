"""Pipeline orchestration.

One analysis run is pe, cs, then up to n rounds of (te, pe, cs), reading
the precondition off the last program.  The wall clock is checked between
transformation steps; when time runs out mid-round the partial round is
discarded and the result falls back to the last completed one.

Each step keeps the program it produced, and its precondition (`swp`) is
computed only when it is read: a run that reports just the final
precondition extracts once, and a step's `seconds` is its transformation
alone.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .core import Clause, Program, initial_constraint_dnf
from .cs import constraint_specialise
from .derivation import find_counterexample
from .linarith import DNF, RUN, TRUE_CONJ, Run
from .pe import pe_run
from .precond import PrecondState, classify, extract_swp, final_precondition
from .te import eliminate_trace

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PipelineConfig:
    iterations: int = 3
    timeout: float = 300.0
    max_cex_nodes: int = 40
    strip_init: bool = False

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")


@dataclass(frozen=True)
class StepRecord:
    """One transformation step: its duration and the program it produced.

    `swp`, the precondition read off that program, is computed on first
    access and then cached.  For trace-elimination steps `feasible` tells
    whether the removed trace was feasible and `trace` holds its term
    notation; a round where no counterexample exists within the node bound
    records neither.
    """

    label: str
    seconds: float
    program: Program = field(repr=False)
    feasible: Optional[bool] = None
    trace: Optional[str] = None

    @cached_property
    def swp(self) -> DNF:
        return extract_swp(self.program)


@dataclass(frozen=True)
class PipelineReport:
    """What one run found, and where its time went.

    `steps` times the transformations; `final_seconds` is the time to read
    the precondition off the last completed round and `classify_seconds`
    the time to compare it with the program's own initial condition, both
    spent after the step loop.
    """

    precondition: DNF
    classification: str
    iterations_used: int
    timed_out: bool
    early_stop: bool
    steps: tuple[StepRecord, ...]
    warnings: tuple[str, ...]
    program: Program
    final_seconds: float
    classify_seconds: float


def strip_init(p: Program) -> tuple[Program, DNF]:
    """Replace initial-fact constraints by true, returning what was removed.

    The removed disjunction is kept so the classification can still compare
    the inferred precondition against the condition the program shipped
    with.
    """
    clauses = [
        Clause(cl.cid, cl.head, TRUE_CONJ, cl.body)
        if cl.is_fact() and p.is_initial(cl.head.pred)
        else cl
        for cl in p.clauses
    ]
    return p.with_clauses(clauses), initial_constraint_dnf(p)


class _WarningTrap(logging.Handler):
    def __init__(self) -> None:
        super().__init__(level=logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


def run_pipeline(p: Program, cfg: Optional[PipelineConfig] = None) -> PipelineReport:
    """Run the full specialisation pipeline and read off the precondition.

    Per-step timings make two reports differ byte-for-byte even on equal
    inputs; everything else in the report is deterministic.  The run's
    kernel answers are remembered in a `Run` held in `linarith.RUN` until
    the call returns or raises.
    """
    if cfg is None:
        cfg = PipelineConfig()
    trap = _WarningTrap()
    root = logging.getLogger(__package__)
    root.addHandler(trap)
    token = RUN.set(Run())
    try:
        return _run(p, cfg, trap)
    finally:
        RUN.reset(token)
        root.removeHandler(trap)


def _run(p: Program, cfg: PipelineConfig, trap: _WarningTrap) -> PipelineReport:
    start = time.monotonic()
    original = p.original_init
    if cfg.strip_init:
        p, original = strip_init(p)

    state = PrecondState()
    steps = [StepRecord("input", 0.0, p)]
    state.record("input", 0)

    cur = p
    timed_out = early_stop = False
    # the program, side conditions and round count after the last completed
    # round; the unspecialised program is itself a sound fallback
    last_good: tuple[Program, list[DNF], int] = (p, [], 0)
    plan = ("pe", "cs") + ("te", "pe", "cs") * cfg.iterations
    for k, label in enumerate(plan):
        if time.monotonic() - start > cfg.timeout:
            timed_out = True
            break
        t0 = time.monotonic()
        cex = feasible = trace = theta = None
        if label == "pe":
            cur = pe_run(cur).program
        elif label == "cs":
            cur = constraint_specialise(cur).program
        else:
            cex = find_counterexample(cur, cfg.max_cex_nodes)
            if cex is not None:
                tree, feasible = cex
                tt = tree.trace()
                trace = str(tt)
                cur, theta = eliminate_trace(cur, tt)
        steps.append(StepRecord(label, time.monotonic() - t0, cur, feasible, trace))
        state.record(label, len(steps) - 1, theta)
        if label == "te" and cex is None:
            early_stop = True
            break
        if label == "cs":
            last_good = (cur, list(state.psis), k // 3)

    # an early stop leaves the last round's result unchanged, and a timeout
    # discards the partial round
    cur, psis, iterations_used = last_good
    if timed_out:
        log.warning("timeout: falling back to iteration %d result", iterations_used)

    final_state = PrecondState(psis=psis, history=list(state.history))
    t0 = time.monotonic()
    pre = final_precondition(final_state, cur)
    t1 = time.monotonic()
    cls = classify(pre, original)
    t2 = time.monotonic()
    return PipelineReport(
        precondition=pre,
        classification=cls,
        iterations_used=iterations_used,
        timed_out=timed_out,
        early_stop=early_stop,
        steps=tuple(steps),
        warnings=tuple(trap.messages),
        program=cur,
        final_seconds=t1 - t0,
        classify_seconds=t2 - t1,
    )
