"""End-to-end pipeline behaviour: iteration, early stop, timeout fallback."""

import pytest

import chcprecond.driver as driver_mod
import chcprecond.pe as pe_mod
import chcprecond.precond as precond_mod
from chcprecond.driver import (
    PipelineConfig,
    run_pipeline,
    strip_init,
)
from chcprecond.linarith import Var, dnf_of_conj, equiv_dnf, make_dnf

from helpers import conj_from, load

A, B, I, N = Var("A"), Var("B"), Var("I"), Var("N")


def test_config_validation():
    with pytest.raises(ValueError, match="iterations"):
        PipelineConfig(iterations=-1)
    with pytest.raises(ValueError, match="timeout"):
        PipelineConfig(timeout=0)


def test_one_round_splits_the_initial_state():
    r = run_pipeline(load("example_t4.chc"), PipelineConfig(iterations=1))
    assert [s.label for s in r.steps] == ["input", "pe", "cs", "te", "pe", "cs"]
    assert r.iterations_used == 1
    assert not r.timed_out and not r.early_stop
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
    assert r.steps[0].swp.is_false()
    assert r.iterations_used == 0
    assert len(r.precondition) == 6


def test_round_step_accounting():
    r = run_pipeline(load("fig1.chc"), PipelineConfig(iterations=2))
    assert [s.label for s in r.steps] == [
        "input", "pe", "cs", "te", "pe", "cs", "te", "pe", "cs",
    ]
    assert r.iterations_used == 2
    for s in r.steps:
        if s.label == "te":
            assert s.trace is not None


def test_early_stop_when_no_counterexample_left():
    r = run_pipeline(load("already_safe.chc"), PipelineConfig(iterations=2))
    assert r.early_stop
    assert r.iterations_used == 0
    assert [s.label for s in r.steps] == ["input", "pe", "cs", "te"]
    last = r.steps[-1]
    assert last.feasible is None and last.trace is None
    assert r.precondition.is_true()
    assert r.classification == "more-general"


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
    assert r.timed_out
    assert r.iterations_used == 0
    assert r.precondition.is_false()
    assert r.classification == "trivial"
    assert any("falling back to iteration 0" in w for w in r.warnings)


def test_strip_init_removes_and_reports():
    p = load("two_inits.chc")
    stripped, removed = strip_init(p)
    for cl in stripped.initial_clauses():
        assert cl.constr.is_true()
    want = make_dnf(
        [conj_from([({A: 1}, 0, "<=")]), conj_from([({A: 1}, -100, ">=")])]
    )
    assert equiv_dnf(removed, want)


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


def test_reports_are_deterministic_up_to_timing():
    cfg = PipelineConfig(iterations=1)
    a = run_pipeline(load("example_t4.chc"), cfg)
    b = run_pipeline(load("example_t4.chc"), cfg)
    assert a.precondition == b.precondition
    assert a.classification == b.classification
    assert [(s.label, s.swp, s.feasible, s.trace) for s in a.steps] == [
        (s.label, s.swp, s.feasible, s.trace) for s in b.steps
    ]


def test_step_swp_is_computed_only_when_read(monkeypatch):
    calls = []
    real = precond_mod.extract_swp

    def counting(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(precond_mod, "extract_swp", counting)
    monkeypatch.setattr(driver_mod, "extract_swp", counting)
    r = run_pipeline(load("fig1.chc"), PipelineConfig(iterations=2))
    # only final_precondition extracts when no step's swp is read
    assert len(calls) == 1
    swps = [s.swp for s in r.steps]
    assert len(calls) == 1 + len(r.steps)
    assert swps == [real(s.program) for s in r.steps]
    # a second read is served from the cache
    assert [s.swp for s in r.steps] == swps
    assert len(calls) == 1 + len(r.steps)
