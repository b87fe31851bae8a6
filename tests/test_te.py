"""Trace elimination: the product over clauses that removes one skeleton."""

import re

import pytest

from chcprecond.core import Program, format_program
from chcprecond.derivation import parse_trace
from chcprecond.linarith import Var
from chcprecond.parser import parse_program
from chcprecond.te import eliminate_trace

from helpers import conj_from, equiv_conj, load, skeleton_language

A, B, C, D = Var("A"), Var("B"), Var("C"), Var("D")


def _stripped(p: Program, max_nodes: int) -> set[str]:
    return {re.sub(r"__\d+", "", s) for s in skeleton_language(p, max_nodes)}


def test_difference_removes_exactly_one_tree():
    p = load("fig1.chc")
    t = parse_trace("c6(c4(c2(c1)))")
    newp, _ = eliminate_trace(p, t)
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


# the loop step shared by c2 and c5 of example_t4_cs0, as it prints
_STEP = "A - D =< -1, A - E = -1, B + C - F - G = -3, C - F >= -2, C - F =< -1"


def _step(cid: str, head: str, body2: int, l1: int) -> str:
    return f"{cid}. {head}(A,B,C,D) :- {_STEP}, l_body_2__{body2}(B,C,G,F), l_1__{l1}(E,G,F,D)."


def test_eliminated_program_text_is_pinned():
    # copies are numbered by their node sets, node numbers compared as
    # strings ("10" before "2"); ordering them as integers renames the
    # copies of l_1 and reorders the clauses
    p = load("example_t4_cs0.chc")
    t = parse_trace("c1(c10,c2(c8,c5(c8,c5(c8,c5(c8,c6)))))")
    newp, _ = eliminate_trace(p, t)
    want = [
        ":- initial(init/4).",
        "c1. false :- init(A,B,C,D), l_3(A,B,C,D).",
        *(_step(f"c2__{k}", "l_3", b, l) for k, (b, l) in enumerate(
            [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 1), (2, 2), (2, 4), (2, 5)], 1)),
        "c3. l_3(A,B,C,D) :- A - D >= 0, B + C - 3*D >= 1.",
        "c4. l_3(A,B,C,D) :- A - D >= 0, B + C - 3*D =< -1.",
        *(_step(f"c5__{k}", f"l_1__{h}", b, l) for k, (h, b, l) in enumerate(
            [(1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 1, 4), (1, 1, 5), (1, 2, 1), (1, 2, 3),
             (3, 2, 4), (4, 2, 5), (5, 2, 2)], 1)),
        "c6. l_1__2(A,B,C,D) :- A - D = 0, B + C - 3*D >= 1.",
        "c7. l_1__1(A,B,C,D) :- A - D = 0, B + C - 3*D =< -1.",
        "c8. l_body_2__2(A,B,C,D) :- A - C = -1, B - D = -2.",
        "c9. l_body_2__1(A,B,C,D) :- A - C = -2, B - D = -1.",
        "c10. init(A,B,C,D).",
    ]
    assert format_program(newp) == "\n".join(want) + "\n"


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


def test_arity_mismatch_reported():
    p = load("fig1.chc")
    broken = Program(p.clauses, p.initial_preds, (Var("X"),))
    with pytest.raises(ValueError, match="arity does not match"):
        eliminate_trace(broken, parse_trace("c6(c4(c2(c1)))"))


_TWO_CHILDREN = (
    ":- initial(p/1).\n"
    "c1. false :- p(A), p(B).\n"
    "c2. p(A) :- A >= 0.\n"
    "c3. p(A) :- A =< 0.\n"
)


def test_children_keep_their_order():
    # a node's children are matched to the body atoms in order: removing
    # c1(c2,c3) keeps c1(c3,c2)
    p = parse_program(_TWO_CHILDREN)
    newp, _ = eliminate_trace(p, parse_trace("c1(c2,c3)"))
    assert skeleton_language(p, 3) == {"c1(c2,c2)", "c1(c2,c3)", "c1(c3,c2)", "c1(c3,c3)"}
    assert _stripped(newp, 3) == {"c1(c2,c2)", "c1(c3,c2)", "c1(c3,c3)"}


def test_removing_the_only_tree_leaves_no_clauses():
    # no goal copy lacks the root, so every copy is pruned
    p = parse_program(
        ":- initial(i/1).\n"
        "c1. i(A).\n"
        "c2. p(A) :- i(A), A >= 1.\n"
        "c3. false :- p(A), A >= 3.\n"
    )
    newp, theta = eliminate_trace(p, parse_trace("c3(c2(c1))"))
    assert equiv_conj(theta, conj_from([({A: 1}, -3, ">=")]))
    assert newp.clauses == ()
    assert newp.initial_preds == frozenset()


def test_a_predicate_with_one_live_copy_keeps_its_name():
    # removing c1(c2,c2) splits p into the trees c2 and c3 stand for; removing
    # c2 below splits nothing, since no clause of p labels a node of it
    p = parse_program(_TWO_CHILDREN)
    newp, _ = eliminate_trace(p, parse_trace("c1(c2,c2)"))
    assert {q.name for q in newp.preds()} - {"false"} == {"p__1", "p__2"}
    q = parse_program(
        ":- initial(p/1).\n"
        "c1. false :- p(A).\n"
        "c2. false :- A >= 5.\n"
        "c3. p(A) :- A =< 0.\n"
    )
    newq, _ = eliminate_trace(q, parse_trace("c2"))
    assert [cl.cid for cl in newq.clauses] == ["c1", "c3"]
    assert {a.pred.name for cl in newq.clauses for a in cl.body} == {"p"}


def test_eliminating_twice_removes_both_trees():
    # the second trace is read off the renamed program, as the driver does
    p = load("fig1.chc")
    first = parse_trace("c6(c4(c2(c1)))")
    once, _ = eliminate_trace(p, first)
    second = "c6(c5(c4(c2(c1))))"
    renamed = [s for s in skeleton_language(once, 6) if re.sub(r"__\d+", "", s) == second]
    assert len(renamed) == 1
    twice, _ = eliminate_trace(once, parse_trace(renamed[0]))
    assert _stripped(twice, 8) == skeleton_language(p, 8) - {str(first), second}


def test_difference_is_idempotent_on_missing_tree():
    # removing a tree twice changes nothing the second time
    p = load("fig1.chc")
    t = parse_trace("c6(c4(c2(c1)))")
    once, _ = eliminate_trace(p, t)
    lang_once = _stripped(once, 8)
    assert str(t) not in lang_once
    assert skeleton_language(p, 8) - {str(t)} == lang_once
