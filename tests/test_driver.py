"""End-to-end pipeline behaviour: iteration, early stop, timeout fallback."""

import sys
import threading
import time
from fractions import Fraction

import pytest

import chcprecond.cs as cs_mod
import chcprecond.derivation as derivation_mod
import chcprecond.driver as driver_mod
import chcprecond.linarith as linarith_mod
import chcprecond.pe as pe_mod
import chcprecond.precond as precond_mod
from chcprecond.driver import (
    PipelineConfig,
    run_pipeline,
    strip_init,
)
from chcprecond.core import Program, format_program, initial_constraint_dnf
from chcprecond.linarith import (
    RUN,
    Run,
    Var,
    _holds_at,
    conj_vars,
    equiv_dnf,
    implies_dnf,
    make_dnf,
)
from chcprecond.parser import parse_program
from chcprecond.precond import extract_swp
from chcprecond.simplex import Budget, Undecided

from helpers import (
    conj_from,
    dnf_of_conj,
    gen_multivar_texts,
    holds_conj,
    holds_dnf,
    load,
    oracle,
)

A, B, I, N = Var("A"), Var("B"), Var("I"), Var("N")


def test_config_validation():
    with pytest.raises(ValueError, match="iterations"):
        PipelineConfig(iterations=-1)
    with pytest.raises(ValueError, match="timeout"):
        PipelineConfig(timeout=0)
    # NaN would never be exceeded, so it would mean no bound at all
    with pytest.raises(ValueError, match="timeout"):
        PipelineConfig(timeout=float("nan"))
    with pytest.raises(ValueError, match="max_cex_nodes"):
        PipelineConfig(max_cex_nodes=-5)


def test_one_round_splits_the_initial_state():
    r = run_pipeline(load("example_t4.chc"), PipelineConfig(iterations=1))
    assert [s.label for s in r.steps] == ["input", "pe", "cs", "te", "pe", "cs"]
    assert r.iterations_used == 1
    assert r.stop == "iterations" and not r.timed_out
    te = r.steps[3]
    assert te.feasible is True
    assert te.trace == "c1(c2,c5)"
    want = dnf_of_conj(
        conj_from([({A: 1, B: 1, N: -3}, 0, "="), ({I: 1, N: -1}, 0, ">=")])
    )
    assert equiv_dnf(r.precondition, want)
    assert r.classification == "non-trivial"


def test_zero_iterations_is_propagation_only():
    r = run_pipeline(load("fig1.chc"), PipelineConfig(iterations=0))
    assert [s.label for s in r.steps] == ["input", "pe", "cs"]
    assert r.steps[0].seconds == 0.0
    assert extract_swp(r.steps[0].program).is_false()
    assert r.iterations_used == 0
    assert len(r.precondition) == 5


@pytest.mark.parametrize("name,iterations", [("fig1.chc", 2), ("counter_loop.chc", 3)])
def test_time_after_the_step_loop_is_reported(name, iterations):
    p = load(name)
    t0 = time.monotonic()
    r = run_pipeline(p, PipelineConfig(iterations=iterations))
    wall = time.monotonic() - t0
    assert r.final_seconds >= 0 and r.classify_seconds >= 0
    outside = r.final_seconds + r.classify_seconds
    assert sum(s.seconds for s in r.steps) + outside <= wall


def test_round_step_accounting():
    # generated program 5 changes its precondition in every round
    p = parse_program(gen_multivar_texts()[5])
    r = run_pipeline(p, PipelineConfig(iterations=2))
    assert [s.label for s in r.steps] == [
        "input", "pe", "cs", "te", "pe", "cs", "te", "pe", "cs",
    ]
    assert r.iterations_used == 2
    assert r.stop == "iterations"
    for s in r.steps:
        if s.label == "te":
            assert s.trace is not None


def test_a_round_that_leaves_the_precondition_unchanged_ends_the_run():
    r = run_pipeline(load("fig1.chc"), PipelineConfig(iterations=4))
    assert r.stop == "unchanged"
    assert r.iterations_used == 1
    assert [s.label for s in r.steps] == ["input", "pe", "cs", "te", "pe", "cs"]
    # round 1's precondition, the same text a run allowed one round reports
    one = run_pipeline(load("fig1.chc"), PipelineConfig(iterations=1))
    assert one.stop == "iterations"
    assert r.precondition == one.precondition
    assert r.program == one.program


def test_an_undecided_check_keeps_the_run_going(monkeypatch):
    undecided = []

    def no_nodes(a, b):
        # `equiv_dnf`'s two inclusions, on one budget with no nodes
        budget = Budget(0)
        try:
            return implies_dnf(a, b, budget) and implies_dnf(b, a, budget)
        except Undecided:
            undecided.append(True)
            raise

    monkeypatch.setattr(driver_mod, "equiv_dnf", no_nodes)
    # counter_loop stops after round 1 when the check is decided, and its
    # check needs a branch-and-bound node; fig1's is decided without one
    r = run_pipeline(load("counter_loop.chc"), PipelineConfig(iterations=2))
    assert undecided == [True]
    assert r.stop == "iterations"
    assert r.iterations_used == 2
    assert [s.label for s in r.steps] == [
        "input", "pe", "cs", "te", "pe", "cs", "te", "pe", "cs",
    ]
    assert not r.warnings
    # round 2's result is sound too: the derivation search finds no way to
    # false from any point it accepts, and it accepts every safe point
    search = oracle.DerivationSearch(load("counter_loop.chc"), depth=40, window=8)
    accepted = [a for a in range(-30, 31) if holds_dnf(r.precondition, {A: a})]
    assert accepted == list(range(-30, 0))
    assert not any(search.reaches_false((a,)) for a in accepted)
    assert all(search.reaches_false((a,)) for a in range(0, 31))


def test_the_check_compares_no_truncated_complement(monkeypatch):
    # with every complement cut to one piece, a check on preconditions
    # would compare truncated sets; the check compares what each round
    # excludes, which needs no complement, so it decides on exact sets,
    # warns nothing, and the run reports what a run allowed one round
    # does, warnings included
    monkeypatch.setattr(linarith_mod, "NEGATION_CAP", 1)
    r = run_pipeline(load("fig1.chc"), PipelineConfig(iterations=2))
    one = run_pipeline(load("fig1.chc"), PipelineConfig(iterations=1))
    assert r.stop == "unchanged" and r.iterations_used == 1
    assert r.warnings == one.warnings == ("negation exceeded 1 disjuncts, truncating",)
    assert r.precondition == one.precondition


def test_early_stop_when_no_counterexample_left():
    r = run_pipeline(load("already_safe.chc"), PipelineConfig(iterations=2))
    assert r.stop == "no-counterexample"
    assert r.iterations_used == 0
    assert [s.label for s in r.steps] == ["input", "pe", "cs", "te"]
    last = r.steps[-1]
    assert last.feasible is None and last.trace is None
    assert r.precondition.is_true()
    assert r.classification == "more-general"


def test_step_plan_is_walked_not_built():
    # the round that stops early comes first; a plan of 3 * 10**18 steps
    # built up front would not fit in memory
    r = run_pipeline(load("already_safe.chc"), PipelineConfig(iterations=10**18))
    assert r.stop == "no-counterexample"
    assert [s.label for s in r.steps] == ["input", "pe", "cs", "te"]


def test_exact_result_on_disjunctive_branches():
    r = run_pipeline(load("branch_split.chc"), PipelineConfig(iterations=2))
    want = make_dnf(
        [
            conj_from([({A: 1}, -36, ">=")]),
            conj_from([({A: 1}, -6, ">="), ({A: 1}, -34, "<=")]),
            conj_from([({A: 1}, -4, "<=")]),
        ]
    )
    assert equiv_dnf(r.precondition, want)


def test_trivial_when_everything_is_unsafe():
    r = run_pipeline(load("no_safe_states.chc"), PipelineConfig(iterations=1))
    assert r.precondition.is_false()
    assert r.classification == "trivial"


def test_timeout_falls_back_to_input_precondition():
    r = run_pipeline(load("fig1.chc"), PipelineConfig(timeout=1e-9))
    assert r.timed_out and r.stop == "timeout"
    assert r.iterations_used == 0
    assert r.precondition.is_false()
    assert r.classification == "trivial"
    assert any("falling back to iteration 0" in w for w in r.warnings)


def test_strip_init_clears_only_initial_facts():
    p = load("two_inits.chc")
    stripped = strip_init(p)
    assert isinstance(stripped, Program)
    assert stripped.initial_preds == p.initial_preds
    assert stripped.init_args == p.init_args
    for old, new in zip(p.clauses, stripped.clauses):
        if new in stripped.initial_clauses():
            assert new.constr.is_true()
        else:
            assert new == old
    assert initial_constraint_dnf(stripped).is_true()
    # what the run keeps as its reference condition
    want = make_dnf(
        [conj_from([({A: 1}, 0, "<=")]), conj_from([({A: 1}, -100, ">=")])]
    )
    assert equiv_dnf(initial_constraint_dnf(p), want)


def test_hand_built_program_is_classified_like_the_parsed_one():
    # the reference condition is read off the input by the run, so a
    # program built from its fields alone classifies as the parsed one does
    p = load("already_safe.chc")
    built = Program(p.clauses, p.initial_preds, p.init_args)
    cfg = PipelineConfig(iterations=1)
    assert run_pipeline(p, cfg).classification == "more-general"
    assert run_pipeline(built, cfg).classification == "more-general"


def test_strip_init_changes_the_reference_condition():
    cfg = PipelineConfig(iterations=1, strip_init=True)
    r = run_pipeline(load("two_inits.chc"), cfg)
    # without the declared constraint every nonzero state is found safe
    want = make_dnf(
        [conj_from([({A: 1}, -1, ">=")]), conj_from([({A: 1}, 1, "<=")])]
    )
    assert equiv_dnf(r.precondition, want)
    assert r.classification == "non-trivial"


def test_warnings_are_collected_in_the_report(monkeypatch):
    monkeypatch.setattr(pe_mod, "VERSION_CAP", 2)
    r = run_pipeline(load("fig1.chc"), PipelineConfig(iterations=0))
    assert any("version cap" in w for w in r.warnings)


# fig1's box in the benchmark; the uncapped run accepts 588 of its 609 points
FIG1_BOX = [{A: a, B: b} for a in range(90, 111) for b in range(-4, 25)]


@pytest.mark.parametrize("cap, accepted", [(1, 156), (2, 440), (4, 586)])
def test_negation_cap_truncates_to_a_sound_subset(monkeypatch, cap, accepted):
    # all four rounds run: the stop rule would end fig1 after round 1, whose
    # complement never grows past four pieces
    monkeypatch.setattr(driver_mod, "equiv_dnf", lambda a, b: False)
    cfg = PipelineConfig(iterations=4)
    full = run_pipeline(load("fig1.chc"), cfg).precondition
    monkeypatch.setattr(linarith_mod, "NEGATION_CAP", cap)
    r = run_pipeline(load("fig1.chc"), cfg)
    assert f"negation exceeded {cap} disjuncts, truncating" in r.warnings
    # truncation drops states, it never adds one
    assert implies_dnf(r.precondition, full)
    assert sum(holds_dnf(full, pt) for pt in FIG1_BOX) == 588
    kept = [pt for pt in FIG1_BOX if holds_dnf(r.precondition, pt)]
    assert len(kept) == accepted
    # the unsafe states: from these the loop exits with A =< 0 and B = 0
    assert not any(pt[B] == 2 * abs(pt[A] - 100) for pt in kept)


def test_reports_are_deterministic_up_to_timing():
    cfg = PipelineConfig(iterations=1)
    a = run_pipeline(load("example_t4.chc"), cfg)
    b = run_pipeline(load("example_t4.chc"), cfg)
    assert a.precondition == b.precondition
    assert a.classification == b.classification
    assert [(s.label, extract_swp(s.program), s.feasible, s.trace) for s in a.steps] == [
        (s.label, extract_swp(s.program), s.feasible, s.trace) for s in b.steps
    ]


def test_the_run_extracts_no_step_swp(monkeypatch):
    calls = []
    monkeypatch.setattr(precond_mod, "extract_swp", calls.append)
    r = run_pipeline(load("fig1.chc"), PipelineConfig(iterations=2))
    # round 1's check compares what rounds 0 and 1 exclude, finds it the
    # same and stops, and the precondition is the complement of what round
    # 1 excludes
    assert [s.label for s in r.steps] == ["input", "pe", "cs", "te", "pe", "cs"]
    assert calls == []


# -- the run context -------------------------------------------------------------


def _fields(r):
    """Every field of a report except its timings, as comparable values."""
    return (
        r.precondition,
        r.classification,
        r.iterations_used,
        r.timed_out,
        r.stop,
        [(s.label, format_program(s.program), s.feasible, s.trace) for s in r.steps],
        r.warnings,
        format_program(r.program),
    )


def test_no_run_is_left_set_after_a_run_returns_or_raises(monkeypatch):
    seen = []
    real = driver_mod.pe_run

    def recording(p):
        seen.append(RUN.get())
        return real(p)

    monkeypatch.setattr(driver_mod, "pe_run", recording)
    assert RUN.get() is None
    run_pipeline(load("counter_loop.chc"), PipelineConfig(iterations=1))
    assert RUN.get() is None
    # one Run serves every step of the run
    assert len(seen) >= 2 and isinstance(seen[0], Run) and all(r is seen[0] for r in seen)

    def failing(p):
        seen.append(RUN.get())
        raise RuntimeError("pe failed")

    monkeypatch.setattr(driver_mod, "pe_run", failing)
    with pytest.raises(RuntimeError, match="pe failed"):
        run_pipeline(load("counter_loop.chc"), PipelineConfig(iterations=1))
    assert isinstance(seen[-1], Run) and seen[-1] is not seen[0]
    assert RUN.get() is None


def test_runs_in_threads_report_what_they_report_one_after_another(monkeypatch):
    # none of these programs warns; the next test runs one that does
    names = ["cs_example.chc", "example_t4.chc", "branch_split.chc", "counter_loop.chc"]
    cfg = PipelineConfig(iterations=1)
    alone = [_fields(run_pipeline(load(n), cfg)) for n in names]
    assert not any(f[6] for f in alone)

    # keyed by the objects themselves: a finished thread's ident, and a
    # collected Run's id, may be handed out again
    runs: dict[threading.Thread, set[Run]] = {}
    real = driver_mod.pe_run

    def recording(p):
        runs.setdefault(threading.current_thread(), set()).add(RUN.get())
        return real(p)

    monkeypatch.setattr(driver_mod, "pe_run", recording)
    together: list = [None] * len(names)

    def work(i: int) -> None:
        together[i] = _fields(run_pipeline(load(names[i]), cfg))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(names))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert together == alone
    # each thread saw one Run of its own
    assert len(runs) == len(names)
    assert all(len(seen) == 1 for seen in runs.values())
    assert len(set().union(*runs.values())) == len(names)


def test_a_run_in_a_thread_reports_only_its_own_warnings():
    quiet_cfg = PipelineConfig(iterations=2)
    alone = _fields(run_pipeline(load("fig1.chc"), quiet_cfg))
    assert alone[6] == ()
    noisy_cfg = PipelineConfig(timeout=1e-9)
    noisy: list = []
    quiet: list = []

    def fall_back() -> None:
        for _ in range(50):
            noisy.append(run_pipeline(load("counter_loop.chc"), noisy_cfg).warnings)

    def work() -> None:
        quiet.append(_fields(run_pipeline(load("fig1.chc"), quiet_cfg)))

    threads = [threading.Thread(target=fall_back), threading.Thread(target=work)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert quiet == [alone]
    assert noisy == [("timeout: falling back to iteration 0 result",)] * 50


def test_every_capped_projection_warns_although_answers_are_remembered(monkeypatch):
    # a capped projection is not remembered, so each call reports its warning;
    # this count is what the code before the per-run memo reported
    monkeypatch.setattr(linarith_mod, "PROJECTION_CAP", 2)
    r = run_pipeline(load("cs_example.chc"), PipelineConfig(iterations=1))
    assert r.warnings == ("projection exceeded 2 constraints, dropping the loosest",) * 12


def _fig1_in_a_run(monkeypatch):
    """fig1 at 10 iterations in a fresh `Run`, the cache cleared first.

    fig1's round 1 leaves its precondition unchanged; every check here
    answers "changed", so that all ten rounds run.  Returns the program,
    its configuration, the run and the report.
    """
    monkeypatch.setattr(driver_mod, "equiv_dnf", lambda a, b: False)
    p, cfg = load("fig1.chc"), PipelineConfig(iterations=10)
    linarith_mod.satisfiable.cache_clear()
    run = Run()
    token = RUN.set(run)
    try:
        report = driver_mod._run(p, cfg, run)
    finally:
        RUN.reset(token)
    assert report.iterations_used == 10
    return p, cfg, run, report


def test_a_run_keeps_a_point_of_every_conjunction_made_at_an_operand_point(monkeypatch):
    # `conj_and` gives a conjunction the point of an operand that holds at
    # every constraint of the other operand; each module that calls it is
    # wrapped, and such a call is noted before `conj_and` runs
    real, made = linarith_mod.conj_and, []

    def noting(a, b):
        run = RUN.get()
        at_point = run is not None and any(
            point is not None and all(_holds_at(k, point) for k in other)
            for point, other in ((run.models.get(a), b), (run.models.get(b), a))
        )
        c = real(a, b)
        if at_point:
            made.append(c)
        return c

    for mod in (linarith_mod, cs_mod, derivation_mod, pe_mod):
        monkeypatch.setattr(mod, "conj_and", noting)
    p, cfg, run, report = _fig1_in_a_run(monkeypatch)
    assert len(made) > 100
    assert all(run.models.get(c) is not None for c in made)
    # every point the run keeps lies in its conjunction
    points = {c: point for c, point in run.models.items() if point is not None}
    assert len(points) > 200
    for c, (nums, den) in points.items():
        full = {v: Fraction(nums.get(v, 0), den) for v in conj_vars(c)}
        assert holds_conj(c, full), (c, nums, den)
    # with no run installed every kernel answer is computed afresh, and the
    # report is the same
    linarith_mod.satisfiable.cache_clear()
    assert _fields(driver_mod._run(p, cfg, Run())) == _fields(report)
