"""Tree automata: construction, difference, and trace elimination."""

import re

import pytest

from chcprecond.core import FALSE_PRED, Pred, Program
from chcprecond.derivation import parse_trace
from chcprecond.linarith import Var, equiv_conj
from chcprecond.parser import parse_program
from chcprecond.te import (
    FTA,
    Transition,
    difference,
    eliminate_trace,
    fta_to_program,
    program_to_fta,
    trace_to_fta,
)

from helpers import conj_from, load, skeleton_language

A, B, C, D = Var("A"), Var("B"), Var("C"), Var("D")


def _stripped(p: Program, max_nodes: int) -> set[str]:
    return {re.sub(r"__\d+", "", s) for s in skeleton_language(p, max_nodes)}


def test_program_fta_shape():
    p = load("fig1.chc")
    f = program_to_fta(p)
    assert f.final == frozenset({FALSE_PRED})
    assert f.states == frozenset(
        {FALSE_PRED, Pred("init", 2), Pred("if", 2), Pred("while", 2)}
    )
    by_cid = {t.cid: t for t in f.transitions}
    assert len(by_cid) == 6
    assert by_cid["c1"] == Transition("c1", (), Pred("init", 2))
    assert by_cid["c6"] == Transition("c6", (Pred("while", 2),), FALSE_PRED)
    assert by_cid["c5"].children == (Pred("while", 2),)


def test_trace_fta_preorder_numbering():
    f = trace_to_fta(parse_trace("c6(c4(c2(c1)))"))
    assert f.final == frozenset({0})
    assert f.states == frozenset({0, 1, 2, 3})
    assert f.transitions == frozenset(
        {
            Transition("c6", (1,), 0),
            Transition("c4", (2,), 1),
            Transition("c2", (3,), 2),
            Transition("c1", (), 3),
        }
    )
    # a node is numbered before its children, and a first child's whole
    # subtree before its next sibling
    f = trace_to_fta(parse_trace("c1(c2(c3),c4(c5,c6))"))
    assert f.transitions == frozenset(
        {
            Transition("c1", (1, 3), 0),
            Transition("c2", (2,), 1),
            Transition("c3", (), 2),
            Transition("c4", (4, 5), 3),
            Transition("c5", (), 4),
            Transition("c6", (), 5),
        }
    )


def test_difference_removes_exactly_one_tree():
    p = load("fig1.chc")
    t = parse_trace("c6(c4(c2(c1)))")
    newp = fta_to_program(difference(program_to_fta(p), trace_to_fta(t)), p)
    before = skeleton_language(p, 6)
    after = _stripped(newp, 6)
    assert str(t) in before
    assert after == before - {str(t)}


def test_difference_on_specialised_fixture():
    p = load("example_t4_cs0.chc")
    t = parse_trace("c1(c10,c2(c8,c5(c8,c5(c8,c5(c8,c6)))))")
    newp, theta = eliminate_trace(p, t)
    before = skeleton_language(p, 13)
    assert len(before) == 126
    after = _stripped(newp, 13)
    assert len(after) == 125
    assert after == before - {str(t)}
    want = conj_from(
        [({A: 1, D: -1}, 4, "="), ({B: 1, C: 1, D: -3}, 11, ">=")]
    )
    assert equiv_conj(theta, want)


def test_eliminated_clauses_keep_their_constraints():
    p = load("example_t4_cs0.chc")
    t = parse_trace("c1(c10,c2(c8,c5(c8,c5(c8,c5(c8,c6)))))")
    newp, _ = eliminate_trace(p, t)
    for cl in newp.clauses:
        src = p.clause_by_id(re.sub(r"__\d+$", "", cl.cid))
        assert cl.constr == src.constr
        assert len(cl.body) == len(src.body)
    assert newp.init_args == p.init_args
    assert all(q.name.startswith("init") for q in newp.initial_preds)


def test_feasible_theta_on_loop_program():
    p = load("fig1.chc")
    newp, theta = eliminate_trace(p, parse_trace("c6(c4(c2(c1)))"))
    assert equiv_conj(theta, conj_from([({A: 1}, -100, "="), ({B: 1}, 0, "=")]))
    assert str(parse_trace("c6(c4(c2(c1)))")) not in _stripped(newp, 6)


def test_infeasible_trace_gives_no_constraint():
    p = load("fig1.chc")
    newp, theta = eliminate_trace(p, parse_trace("c6(c4(c3(c1)))"))
    assert theta is None
    assert str(parse_trace("c6(c4(c3(c1)))")) not in _stripped(newp, 6)


def test_feasible_trace_without_initial_node():
    p = parse_program(
        ":- initial(i/1).\n"
        "c1. i(A).\n"
        "c2. p(A) :- i(A).\n"
        "c3. false :- A >= 3.\n"
    )
    _, theta = eliminate_trace(p, parse_trace("c3"))
    assert theta is not None and theta.is_true()


@pytest.mark.parametrize(
    "trace",
    [
        "c6(c2(c1))",  # c2 derives if, where c6 reads while
        "c2(c1)",  # derives if, not false
        "c6(c4(c9(c1)))",  # no clause c9
        "c6(c4(c2(c1),c1))",  # c4 has one body atom
        "c6(c4(c2))",  # c2 has one body atom
    ],
)
def test_rejects_trace_outside_language(trace):
    p = load("fig1.chc")
    with pytest.raises(ValueError, match="trace not in program language"):
        eliminate_trace(p, parse_trace(trace))


def test_rejects_foreign_automaton():
    p = load("fig1.chc")
    f = FTA(
        frozenset({FALSE_PRED}),
        frozenset({FALSE_PRED}),
        frozenset({Transition("zzz", (), FALSE_PRED)}),
    )
    with pytest.raises(ValueError, match="automaton not derived from program"):
        fta_to_program(f, p)


def test_arity_mismatch_reported():
    p = load("fig1.chc")
    broken = Program(p.clauses, p.initial_preds, (Var("X"),))
    with pytest.raises(ValueError, match="arity does not match"):
        eliminate_trace(broken, parse_trace("c6(c4(c2(c1)))"))


def test_difference_is_idempotent_on_missing_tree():
    # removing a tree twice changes nothing the second time
    p = load("fig1.chc")
    t = parse_trace("c6(c4(c2(c1)))")
    once, _ = eliminate_trace(p, t)
    lang_once = _stripped(once, 8)
    assert str(t) not in lang_once
    assert skeleton_language(p, 8) - {str(t)} == lang_once
