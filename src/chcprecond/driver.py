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
from .cs import DEFAULT_WIDENING_DELAY, constraint_specialise
from .derivation import find_counterexample
from .linarith import DNF, TRUE_CONJ
from .pe import pe_run
from .precond import PrecondState, classify, extract_swp, final_precondition
from .te import eliminate_trace

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PipelineConfig:
    iterations: int = 3
    timeout: float = 300.0
    max_cex_nodes: int = 40
    widening_delay: int = DEFAULT_WIDENING_DELAY
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
    precondition: DNF
    classification: str
    iterations_used: int
    timed_out: bool
    early_stop: bool
    steps: tuple[StepRecord, ...]
    warnings: tuple[str, ...]
    program: Program


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
    inputs; everything else in the report is deterministic.
    """
    if cfg is None:
        cfg = PipelineConfig()
    trap = _WarningTrap()
    root = logging.getLogger(__package__)
    root.addHandler(trap)
    try:
        return _run(p, cfg, trap)
    finally:
        root.removeHandler(trap)


def _run(p: Program, cfg: PipelineConfig, trap: _WarningTrap) -> PipelineReport:
    start = time.monotonic()
    original = p.original_init
    if cfg.strip_init:
        p, original = strip_init(p)

    state = PrecondState()
    steps = [StepRecord("input", 0.0, p)]
    state.record("input", 0)

    def out_of_time() -> bool:
        return time.monotonic() - start > cfg.timeout

    def step(label: str, prog: Program) -> Program:
        t0 = time.monotonic()
        if label == "pe":
            nxt = pe_run(prog).program
        else:
            nxt = constraint_specialise(prog, cfg.widening_delay).program
        steps.append(StepRecord(label, time.monotonic() - t0, nxt))
        state.record(label, len(steps) - 1)
        return nxt

    cur = p
    timed_out = False
    early_stop = False
    iterations_used = 0
    # the unspecialised program is itself a sound fallback for extraction
    last_good: tuple[Program, list[DNF], int] = (p, [], 0)

    for label in ("pe", "cs"):
        if out_of_time():
            timed_out = True
            break
        cur = step(label, cur)
    else:
        last_good = (cur, list(state.psis), 0)
        for i in range(1, cfg.iterations + 1):
            if out_of_time():
                timed_out = True
                break
            t0 = time.monotonic()
            cex = find_counterexample(cur, cfg.max_cex_nodes)
            if cex is None:
                steps.append(StepRecord("te", time.monotonic() - t0, cur))
                state.record("te", len(steps) - 1)
                early_stop = True
                break
            tree, feas = cex
            tt = tree.trace()
            cur, theta = eliminate_trace(cur, tt)
            steps.append(
                StepRecord(
                    "te",
                    time.monotonic() - t0,
                    cur,
                    feasible=feas,
                    trace=str(tt),
                )
            )
            state.record("te", len(steps) - 1, theta)
            if out_of_time():
                timed_out = True
                break
            cur = step("pe", cur)
            if out_of_time():
                timed_out = True
                break
            cur = step("cs", cur)
            iterations_used = i
            last_good = (cur, list(state.psis), i)

    psis = list(state.psis)
    if timed_out:
        cur, psis, iterations_used = last_good
        log.warning("timeout: falling back to iteration %d result", iterations_used)

    final_state = PrecondState(psis=psis, history=list(state.history))
    pre = final_precondition(final_state, cur)
    cls = classify(pre, original)
    return PipelineReport(
        precondition=pre,
        classification=cls,
        iterations_used=iterations_used,
        timed_out=timed_out,
        early_stop=early_stop,
        steps=tuple(steps),
        warnings=tuple(trap.messages),
        program=cur,
    )
