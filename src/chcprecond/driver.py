"""Pipeline orchestration.

One analysis run is pe, cs, then up to n rounds of (te, pe, cs), reading
the precondition off the last program.  Between rounds the run carries only
the program and the side conditions: one initial-state projection `theta`
per feasible trace eliminated, subtracted from the last program's
precondition at the end.  The wall clock is checked between transformation
steps; when time runs out mid-round the partial round is discarded and the
result falls back to the last completed one.

What a run gives up (a cap, an exhausted budget, a timeout fallback) is
reported through `linarith.warn`, which appends to the run's own `Run`;
the report's `warnings` are that list, in order.

Each step keeps the program it produced, and its precondition (`swp`) is
computed only when it is read: a run that reports just the final
precondition extracts once, and a step's `seconds` is its transformation
alone.
"""

from __future__ import annotations

import time
from functools import cached_property
from typing import NamedTuple, Optional

from .core import Clause, Program, initial_constraint_dnf
from .cs import constraint_specialise
from .derivation import find_counterexample
from .linarith import DNF, RUN, TRUE_CONJ, ConstraintConj, Run, warn
from .pe import pe_run
from .precond import classify, extract_swp, final_precondition
from .te import eliminate_trace


class _PipelineConfigFields(NamedTuple):
    iterations: int = 3
    timeout: float = 300.0
    max_cex_nodes: int = 40
    strip_init: bool = False


class PipelineConfig(_PipelineConfigFields):
    """Run settings, checked when built."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> PipelineConfig:
        self = super().__new__(cls, *args, **kwargs)
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        # also rejects NaN, which no elapsed time would ever exceed
        if not self.timeout > 0:
            raise ValueError("timeout must be positive")
        if self.max_cex_nodes < 0:
            raise ValueError("max_cex_nodes must be non-negative")
        return self


class _StepRecordFields(NamedTuple):
    label: str
    seconds: float
    program: Program
    feasible: Optional[bool] = None
    trace: Optional[str] = None


class StepRecord(_StepRecordFields):
    """One transformation step: its duration and the program it produced.

    `swp`, the precondition read off that program, is computed on first
    access and then cached in the instance dict, so the class has no
    `__slots__`.  For trace-elimination steps `feasible` tells whether the
    removed trace was feasible and `trace` holds its term notation; a round
    where no counterexample exists within the node bound records neither.
    The repr leaves the program out.
    """

    def __repr__(self) -> str:
        return (
            f"StepRecord(label={self.label!r}, seconds={self.seconds!r}, "
            f"feasible={self.feasible!r}, trace={self.trace!r})"
        )

    @cached_property
    def swp(self) -> DNF:
        return extract_swp(self.program)


class PipelineReport(NamedTuple):
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


def strip_init(p: Program) -> Program:
    """The program with every initial fact's constraint replaced by true."""
    clauses = [
        Clause(cl.cid, cl.head, TRUE_CONJ, cl.body)
        if cl.is_fact() and p.is_initial(cl.head.pred)
        else cl
        for cl in p.clauses
    ]
    return p.with_clauses(clauses)


def run_pipeline(p: Program, cfg: Optional[PipelineConfig] = None) -> PipelineReport:
    """Run the full specialisation pipeline and read off the precondition.

    Per-step timings make two reports differ byte-for-byte even on equal
    inputs; everything else in the report is deterministic.  The run's
    kernel answers and warnings are kept in a `Run` held in `linarith.RUN`
    until the call returns or raises, so concurrent runs in other threads
    neither share answers nor see each other's warnings.
    """
    if cfg is None:
        cfg = PipelineConfig()
    run = Run()
    token = RUN.set(run)
    try:
        return _run(p, cfg, run)
    finally:
        RUN.reset(token)


def _run(p: Program, cfg: PipelineConfig, run: Run) -> PipelineReport:
    start = time.monotonic()
    # the reference condition is the input's own, read before any stripping
    original = initial_constraint_dnf(p)
    if cfg.strip_init:
        p = strip_init(p)

    # one side condition per feasible trace eliminated
    thetas: list[ConstraintConj] = []
    steps = [StepRecord("input", 0.0, p)]

    cur = p
    timed_out = early_stop = False
    # the program, side conditions and round count after the last completed
    # round; the unspecialised program is itself a sound fallback
    last_good: tuple[Program, list[ConstraintConj], int] = (p, [], 0)
    # the steps pe, cs, then (te, pe, cs) per round, walked without building
    # the plan, so that k // 3 counts the rounds done
    for k in range(2 + 3 * cfg.iterations):
        label = ("pe", "cs", "te")[k % 3]
        if time.monotonic() - start > cfg.timeout:
            timed_out = True
            break
        t0 = time.monotonic()
        cex = feasible = trace = None
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
                if theta is not None:
                    thetas.append(theta)
        steps.append(StepRecord(label, time.monotonic() - t0, cur, feasible, trace))
        if label == "te" and cex is None:
            early_stop = True
            break
        if label == "cs":
            last_good = (cur, list(thetas), k // 3)

    # an early stop leaves the last round's result unchanged, and a timeout
    # discards the partial round
    cur, thetas, iterations_used = last_good
    if timed_out:
        warn(f"timeout: falling back to iteration {iterations_used} result")

    t0 = time.monotonic()
    pre = final_precondition(cur, thetas)
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
        warnings=tuple(run.warnings),
        program=cur,
        final_seconds=t1 - t0,
        classify_seconds=t2 - t1,
    )
