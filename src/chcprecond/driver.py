"""Pipeline orchestration.

One analysis run is pe, cs, then up to n rounds of (te, pe, cs).  Between
rounds the run carries only the program and the side conditions: one
initial-state projection `theta` per feasible trace eliminated.  What a
round excludes is its program's initial facts and the side conditions so
far, and its precondition is the integer complement of that set
(`precond.final_precondition`), computed once, for the last completed
round, after the step loop.

`iterations` is an upper bound on the rounds.  A run stops before it when
no counterexample is left within the node bound, or when a round leaves
the precondition unchanged: after round k >= 1, while another round is
allowed, the initial states round k excludes are compared with round
k-1's by integer equivalence (`equiv_dnf`), and an equal pair ends the run
with round k's precondition.  Every round's result is sound,
so stopping only gives up what a later round might still have found; an
undecided comparison keeps the run going.  The report's `stop` names the
reason.

The wall clock is checked between transformation steps, and the time of the
round checks counts against it; when time runs out mid-round the partial
round is discarded and the result falls back to the last completed one.

What a run gives up (a cap, an exhausted budget, a timeout fallback) is
reported through `linarith.warn`, which appends to the run's own `Run`;
the report's `warnings` are that list, in order.

Each step keeps the program it produced and the time its transformation
took; the only precondition a run computes is the last completed round's.
"""

from __future__ import annotations

import time
from functools import cached_property
from typing import NamedTuple, Optional

from .core import Clause, Program, initial_constraint_dnf
from .cs import constraint_specialise
from .derivation import find_counterexample
from .linarith import DNF, RUN, TRUE_CONJ, ConstraintConj, Run, equiv_dnf, warn
from .pe import pe_run
from .precond import classify, final_precondition
from .simplex import Undecided
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


class StepRecord(NamedTuple):
    """One transformation step: its duration and the program it produced.

    For trace-elimination steps `feasible` tells whether the removed trace
    was feasible and `trace` holds its term notation; a round where no
    counterexample exists within the node bound records neither.  The repr
    leaves the program out.
    """

    label: str
    seconds: float
    program: Program
    feasible: Optional[bool] = None
    trace: Optional[str] = None

    def __repr__(self) -> str:
        return (
            f"StepRecord(label={self.label!r}, seconds={self.seconds!r}, "
            f"feasible={self.feasible!r}, trace={self.trace!r})"
        )


class _Round:
    """A completed round: its last step, side conditions and number."""

    def __init__(self, step: StepRecord, thetas: tuple[ConstraintConj, ...], number: int):
        self.step = step
        self.thetas = thetas
        self.number = number

    @cached_property
    def excluded(self) -> DNF:
        """The initial states the round's precondition leaves out.

        Its program's initial facts, in `initial_constraint_dnf`'s order,
        then its side conditions in elimination order, not re-sorted: the
        round's precondition is `final_precondition` of this set, which
        subtracts them in this order.  That is its integer complement, up
        to the negation cap, so two rounds that exclude the same integer
        points have the same precondition, and the round check compares
        these sets without computing a complement.  The value is kept, so a
        round compared twice computes it once.
        """
        return DNF((*initial_constraint_dnf(self.step.program), *self.thetas))


class PipelineReport(NamedTuple):
    """What one run found, and where its time went.

    `stop` says why the step loop ended: `iterations` when every allowed
    round ran, `no-counterexample` when none was left within the node
    bound, `unchanged` when a round left the precondition as it was, and
    `timeout` when the wall clock ran out.  `steps` times the
    transformations; `final_seconds` is the time to read the precondition
    off the last completed round after the step loop, and
    `classify_seconds` the time to compare it with the program's own
    initial condition.
    """

    precondition: DNF
    classification: str
    iterations_used: int
    timed_out: bool
    stop: str
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
    stop = "iterations"
    # the last completed round; the unspecialised program is itself a sound
    # fallback
    last = _Round(steps[0], (), 0)
    # the steps pe, cs, then (te, pe, cs) per round, walked without building
    # the plan, so that k // 3 counts the rounds done
    for k in range(2 + 3 * cfg.iterations):
        label = ("pe", "cs", "te")[k % 3]
        if time.monotonic() - start > cfg.timeout:
            stop = "timeout"
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
            stop = "no-counterexample"
            break
        if label == "cs":
            prev, last = last, _Round(steps[-1], tuple(thetas), k // 3)
            # the last allowed round needs no check: the run ends there anyway
            if 0 < last.number < cfg.iterations:
                # on every program tested, a round that changed the
                # precondition excluded fewer states than the one before,
                # so the inclusion that fails on a change is tried first
                try:
                    unchanged = equiv_dnf(prev.excluded, last.excluded)
                except Undecided:
                    unchanged = False
                if unchanged:
                    stop = "unchanged"
                    break

    # an early stop leaves the last round's result unchanged, and a timeout
    # discards the partial round
    timed_out = stop == "timeout"
    if timed_out:
        warn(f"timeout: falling back to iteration {last.number} result")

    t0 = time.monotonic()
    pre = final_precondition(last.excluded)
    t1 = time.monotonic()
    cls = classify(pre, original)
    t2 = time.monotonic()
    return PipelineReport(
        precondition=pre,
        classification=cls,
        iterations_used=last.number,
        timed_out=timed_out,
        stop=stop,
        steps=tuple(steps),
        warnings=tuple(run.warnings),
        program=last.step.program,
        final_seconds=t1 - t0,
        classify_seconds=t2 - t1,
    )
