"""Polyvariant specialisation: property generation, versions, the S/R table."""

import pytest

from chcprecond.core import Pred
from chcprecond.derivation import find_counterexample
from chcprecond.driver import PipelineConfig, run_pipeline
from chcprecond.linarith import Var, format_conj, implies_dnf
from chcprecond.parser import parse_program
import chcprecond.pe as pe_mod
from chcprecond.pe import canonical_args, gen_properties, pe_run
from chcprecond.precond import extract_swp

from helpers import conj_from, corpus_files, equiv_conj, load

A, B = Var("A"), Var("B")


def _prop_sets(p):
    canon = canonical_args(p)
    return {pred: list(gen_properties(p, canon, pred)) for pred in canon}


def test_property_generation_on_loop_program():
    p = load("fig1.chc")
    props = _prop_sets(p)
    assert sum(len(v) for v in props.values()) == 9
    want = {
        Pred("init", 2): [
            conj_from([({A: 1}, -100, "<=")]),
            conj_from([({A: 1}, -101, ">=")]),
        ],
        Pred("if", 2): [
            conj_from([({A: 1}, 0, ">=")]),
            conj_from([({A: 1}, -1, ">=")]),
        ],
        Pred("while", 2): [
            conj_from([({A: 1}, -1, ">=")]),
            conj_from([({A: 1}, 0, ">=")]),
            conj_from([({A: 1}, 0, "<="), ({B: 1}, 0, "=")]),
            conj_from([({A: 1}, 0, "<=")]),
            conj_from([({B: 1}, 0, "=")]),
        ],
    }
    for pred, expect in want.items():
        got = props[pred]
        assert len(got) == len(expect), pred
        for e in expect:
            assert any(equiv_conj(g, e) for g in got), (pred, e)


def test_canonical_args_first_occurrence():
    p = load("fig1.chc")
    canon = canonical_args(p)
    assert canon[Pred("init", 2)] == (Var("A"), Var("B"))
    assert canon[Pred("while", 2)] == (Var("A"), Var("B"))


def test_version_table_on_loop_program():
    r = pe_run(load("fig1.chc"))
    by_step = {step: added_s for step, added_s, _ in r.added}
    assert sorted(by_step) == [0, 1, 2, 3, 4]
    names = {step: [name for name, _, _ in s] for step, s in by_step.items()}
    assert names[0] == ["false"]
    assert names[1] == ["while_1"]
    assert sorted(names[2]) == ["if_1", "while_2"]
    assert sorted(names[3]) == ["if_2", "init_1", "init_2"]
    assert names[4] == ["init_3"]
    rows = {name: (args, format_conj(theta)) for s in by_step.values() for name, args, theta in s}
    assert rows["false"] == ((), "true")
    assert rows["while_1"] == ((A, B), "A =< 0, B = 0")
    assert rows["init_3"] == ((A, B), "A =< 99")
    assert rows["if_1"] == ((A, B), "true")
    # one resultant row per emitted clause
    assert sum(len(added_r) for _, _, added_r in r.added) == len(r.program.clauses)


def test_emitted_program_shape():
    p = load("fig1.chc")
    r = pe_run(p)
    assert len(r.program.clauses) == 12
    names = {q.name for q in r.program.preds()}
    assert names == {
        "while_1",
        "while_2",
        "if_1",
        "if_2",
        "init_1",
        "init_2",
        "init_3",
    }
    assert r.program.init_args == p.init_args


def test_initial_versions_keep_raw_constraints():
    r = pe_run(load("fig1.chc"))
    assert {q.name for q in r.program.initial_preds} == {"init_1", "init_2", "init_3"}
    facts = {cl.head.pred.name: cl.constr for cl in r.program.initial_clauses()}
    assert equiv_conj(facts["init_1"], conj_from([({A: 1}, -100, "<=")]))
    assert equiv_conj(facts["init_2"], conj_from([({A: 1}, -101, ">=")]))
    assert equiv_conj(facts["init_3"], conj_from([({A: 1}, -99, "<=")]))


def test_unreachable_goal_gives_empty_program():
    r = pe_run(load("already_safe.chc"))
    assert r.program.clauses == ()
    assert r.program.initial_preds == frozenset()


def test_non_initial_branching_pred_unfolded_away():
    r = pe_run(load("chain_skip.chc"))
    names = {q.name for q in r.program.preds()}
    assert all(not n.startswith("p") and not n.startswith("bound") for n in names)
    assert len([cl for cl in r.program.clauses if cl.head is None]) == 2


def test_coverage_required():
    p = parse_program(":- initial(i/1).\nc1. i(A).\nc2. false :- B >= 1.\n")
    with pytest.raises(ValueError, match="coverage check failed"):
        pe_run(p)


def test_version_cap_falls_back_to_subset_keys(monkeypatch, capsys):
    monkeypatch.setattr(pe_mod, "VERSION_CAP", 2)
    r = pe_run(load("fig1.chc"))
    # outside a run the warning goes to stderr
    assert "version cap reached; " in capsys.readouterr().err
    assert r.program.clauses  # still terminates with a usable result


@pytest.mark.parametrize("name", corpus_files())
def test_swp_only_weakens(name):
    p = load(name)
    r = pe_run(p)
    assert implies_dnf(extract_swp(p), extract_swp(r.program))


@pytest.mark.parametrize("name", corpus_files())
def test_feasible_counterexample_parity(name):
    # infeasible derivations may disappear, feasible ones must not
    p = load(name)
    r = pe_run(p)
    before = find_counterexample(p, 12)
    after = find_counterexample(r.program, 12)
    had = before is not None and before[1]
    has = after is not None and after[1]
    assert had == has


def test_long_chain_of_single_clause_predicates_unfolds_without_recursion():
    # p1 .. p1499 each have one clause and are unfolded into the goal; the
    # chain is deeper than Python's default recursion limit
    n = 1500
    lines = [":- initial(p0/1).", "p0(A) :- A >= 0."]
    lines += [f"p{i}(A) :- p{i - 1}(A)." for i in range(1, n)]
    lines.append(f"false :- A >= 5, p{n - 1}(A).")
    p = parse_program("\n".join(lines) + "\n")
    out = pe_run(p).program
    assert [str(a.pred) for cl in out.clauses for a in cl.body] == ["p0_1/1"]
    assert str(run_pipeline(p, PipelineConfig(iterations=1)).precondition) == "A =< 4"
