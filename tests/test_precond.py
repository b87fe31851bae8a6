"""Precondition extraction, pruning, and classification."""

import pytest

from chcprecond.core import Program, initial_constraint_dnf
from chcprecond.cs import constraint_specialise
import chcprecond.linarith as linarith
from chcprecond.linarith import (
    DNF,
    DNF_FALSE,
    Var,
    equiv_dnf,
    make_dnf,
)
from chcprecond.parser import parse_program
from chcprecond.pe import pe_run
from chcprecond.precond import (
    classify,
    extract_swp,
    final_precondition,
    prune_disjuncts,
)

from helpers import conj_from, dnf_of_conj, grid, holds_dnf, load

A, B, X = Var("A"), Var("B"), Var("X")


def test_unconstrained_fact_means_no_safe_state():
    # the input program admits every initial state as potentially unsafe
    assert extract_swp(load("fig1.chc")).is_false()


def test_rationally_contradictory_negation_collapses():
    swp = extract_swp(pe_run(load("fig1.chc")).program)
    assert swp.is_false()


def test_swp_after_strengthening_matches_pointwise_oracle():
    p = constraint_specialise(pe_run(load("fig1.chc")).program).program
    swp = extract_swp(p)
    for pt in grid([A, B], -30, 130):
        want = pt[B] != abs(2 * pt[A] - 200)
        assert holds_dnf(swp, pt) == want, pt
    assert len(prune_disjuncts(swp)) == 5


def test_no_initial_facts_means_true():
    swp = extract_swp(pe_run(load("already_safe.chc")).program)
    assert swp.is_true()


def test_arity_guard():
    p = load("fig1.chc")
    broken = Program(p.clauses, p.initial_preds, (Var("Z"),))
    with pytest.raises(ValueError, match="arity does not match"):
        extract_swp(broken)


def test_prune_drops_entailed_disjunct():
    d = make_dnf(
        [conj_from([({X: 1}, -5, ">=")]), conj_from([({X: 1}, 0, ">=")])]
    )
    out = prune_disjuncts(d)
    assert len(out) == 1
    assert equiv_dnf(out, dnf_of_conj(conj_from([({X: 1}, 0, ">=")])))


def test_prune_keeps_one_of_an_equivalent_pair():
    pair = make_dnf(
        [
            conj_from([({X: 1}, 0, ">="), ({X: 1}, 0, "<=")]),
            conj_from([({X: 1}, 0, "=")]),
        ]
    )
    out = prune_disjuncts(pair)
    assert len(out) == 1
    assert equiv_dnf(out, dnf_of_conj(conj_from([({X: 1}, 0, "=")])))


def test_final_precondition_conjoins_side_conditions():
    p = parse_program(
        ":- initial(i/1).\nc1. i(A) :- A >= 0.\nc2. false :- i(A).\n"
    )
    theta = conj_from([({A: 1}, -3, ">=")])
    got = final_precondition(DNF((*initial_constraint_dnf(p), theta)))
    assert equiv_dnf(got, dnf_of_conj(conj_from([({A: 1}, 1, "<=")])))


def test_classify_trivial():
    original = dnf_of_conj(conj_from([({X: 1}, 0, ">=")]))
    assert classify(DNF_FALSE, original) == "trivial"
    rationally_empty = dnf_of_conj(
        conj_from([({X: 1}, 0, ">="), ({X: 1}, 1, "<=")])
    )
    assert classify(rationally_empty, original) == "trivial"


def test_classify_against_declared_condition():
    derived = dnf_of_conj(conj_from([({X: 1}, 0, ">=")]))
    original = dnf_of_conj(conj_from([({X: 1}, -5, ">=")]))
    assert classify(derived, original) == "more-general"
    assert classify(original, derived) == "non-trivial"


def test_classify_reports_exhausted_budget(monkeypatch, capsys):
    monkeypatch.setattr(linarith, "DEFAULT_BUDGET_NODES", 0)
    derived = dnf_of_conj(conj_from([({X: 1}, 0, ">=")]))
    original = dnf_of_conj(conj_from([({X: 1}, -5, ">=")]))
    assert classify(derived, original) == "undecided"
    # outside a run the warning goes to stderr
    assert "undecided" in capsys.readouterr().err
