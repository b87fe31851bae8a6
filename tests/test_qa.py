"""Query-answer transformation: structure and bounded adequacy."""

import pytest

from chcprecond.core import FALSE_PRED, Pred
from chcprecond.derivation import iter_and_trees
from chcprecond.parser import parse_program
from chcprecond.qa import GOAL_ID, answer_pred, qa_transform, query_pred

from helpers import load, with_answer_goal


def test_tags():
    p = Pred("p", 2)
    assert query_pred(p) == Pred("p#q", 2)
    assert answer_pred(p) == Pred("p#a", 2)


def test_goal_clause_seeded_true():
    qa = qa_transform(load("cs_example.chc"))
    goal = qa.clause_by_id(GOAL_ID)
    assert goal.head.pred == query_pred(FALSE_PRED)
    assert goal.constr.is_true()
    assert not goal.body


def test_clause_counts():
    # one answer clause per clause, one query clause per body atom, one goal
    p = load("cs_example.chc")
    qa = qa_transform(p)
    body_atoms = sum(len(cl.body) for cl in p.clauses)
    assert len(qa.clauses) == 1 + len(p.clauses) + body_atoms


def test_fact_case():
    p = load("cs_example.chc")
    qa = qa_transform(p)
    # p(A,B) <- A=B becomes p#a(A,B) <- A=B, p#q(A,B)
    cl = qa.clause_by_id("c3_a")
    assert cl.head.pred == Pred("p#a", 2)
    assert [a.pred for a in cl.body] == [Pred("p#q", 2)]
    assert cl.head.args == cl.body[0].args
    assert cl.constr == p.clause_by_id("c3").constr


def test_goal_integrity_clause_case():
    qa = qa_transform(load("cs_example.chc"))
    ans = qa.clause_by_id("c1_a")
    assert ans.head.pred == Pred("false#a", 0)
    assert [a.pred for a in ans.body] == [Pred("false#q", 0), Pred("p#a", 2)]
    q1 = qa.clause_by_id("c1_q1")
    assert q1.head.pred == Pred("p#q", 2)
    assert [a.pred for a in q1.body] == [Pred("false#q", 0)]


def test_recursive_clause_case():
    qa = qa_transform(load("cs_example.chc"))
    ans = qa.clause_by_id("c2_a")
    assert ans.head.pred == Pred("p#a", 2)
    assert [a.pred for a in ans.body] == [Pred("p#q", 2), Pred("p#a", 2)]
    # the query for the body call propagates left to right
    q1 = qa.clause_by_id("c2_q1")
    assert q1.head.pred == Pred("p#q", 2)
    assert [a.pred for a in q1.body] == [Pred("p#q", 2)]
    assert q1.head.args == ans.body[1].args


def test_left_to_right_query_includes_left_answers():
    p = parse_program(
        ":- initial(i/1).\n"
        "c1. i(A).\n"
        "c2. r(A) :- i(A).\n"
        "c3. false :- r(A), r(B).\n"
    )
    qa = qa_transform(p)
    q2 = qa.clause_by_id("c3_q2")
    assert q2.head.pred == Pred("r#q", 1)
    assert [a.pred for a in q2.body] == [Pred("false#q", 0), Pred("r#a", 1)]


def test_constraints_never_touched():
    p = load("example_t4.chc")
    qa = qa_transform(p)
    for cl in qa.clauses:
        if cl.cid == GOAL_ID:
            continue
        src = cl.cid.rsplit("_", 1)[0]
        assert cl.constr == p.clause_by_id(src).constr


def test_no_goal_clauses_and_no_initial_preds():
    qa = qa_transform(load("fig1.chc"))
    assert not qa.goal_clauses()
    assert not qa.initial_preds


def test_coverage_precondition():
    p = parse_program(":- initial(i/1).\nc1. i(A).\nc2. false :- B >= 1.\n")
    with pytest.raises(ValueError, match="coverage check failed"):
        qa_transform(p)


def test_bounded_adequacy_on_small_program():
    """false has a feasible tree iff false#a has one in the transform."""
    p = load("cs_example.chc")
    qa = qa_transform(p)
    has_false = any(True for _ in iter_and_trees(p, 4))
    has_ans = any(True for _ in iter_and_trees(with_answer_goal(qa), 13))
    assert has_false and has_ans
