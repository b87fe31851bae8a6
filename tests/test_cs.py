"""Constraint specialisation: invariants, strengthening, a worked loop replay."""

from collections import deque

import pytest

from chcprecond import cs
from chcprecond.core import Pred, recursive_preds
from chcprecond.cs import constraint_specialise, invariants_for, strengthen
from chcprecond.derivation import iter_and_trees
from chcprecond.driver import PipelineConfig, run_pipeline
from chcprecond.linarith import (
    FALSE_CONJ,
    Var,
    conj_and,
    entails,
    implies_dnf,
)
from chcprecond.parser import parse_program
from chcprecond.pe import pe_run
from chcprecond.precond import extract_swp
from chcprecond.qa import qa_transform

from helpers import (
    conj_from,
    corpus_files,
    equiv_conj,
    gen_multivar_texts,
    gen_twoloop_texts,
    load,
    programs_equivalent,
)

A, B, C = Var("A"), Var("B"), Var("C")
A0, A1 = Var("$a0"), Var("$a1")


def test_small_example_invariants():
    inv = invariants_for(load("cs_example.chc"))
    p = Pred("p", 2)
    assert equiv_conj(inv.call_inv(p), conj_from([({A0: 1}, 0, ">=")]))
    assert equiv_conj(
        inv.ans_inv(p),
        conj_from([({A0: 1}, 0, ">="), ({A0: 1, A1: -1}, 0, "<=")]),
    )


def test_small_example_strengthened_clauses():
    p = load("cs_example.chc")
    r = constraint_specialise(p)
    assert r.deleted == ()
    got = {cl.cid: cl.constr for cl in r.program.clauses}
    assert equiv_conj(
        got["c1"], conj_from([({A: 1}, 0, ">="), ({A: 1, B: -1}, 0, "<=")])
    )
    assert equiv_conj(
        got["c2"],
        conj_from(
            [({C: 1, A: -1}, 0, ">="), ({C: 1}, 0, ">="), ({C: 1, B: -1}, 0, "<=")]
        ),
    )
    assert equiv_conj(got["c3"], conj_from([({A: 1, B: -1}, 0, "="), ({A: 1}, 0, ">=")]))


def test_added_conjuncts_factor_through_original():
    # each strengthened clause is (original and invariant part), nothing else
    p = load("cs_example.chc")
    r = constraint_specialise(p)
    rec = r.program.clause_by_id("c2")
    added = conj_from([({B: 1, C: -1}, 0, ">="), ({C: 1}, 0, ">=")])
    assert equiv_conj(rec.constr, conj_and(p.clause_by_id("c2").constr, added))
    fact = r.program.clause_by_id("c3")
    added = conj_from([({B: 1, A: -1}, 0, ">="), ({A: 1}, 0, ">=")])
    assert equiv_conj(fact.constr, conj_and(p.clause_by_id("c3").constr, added))


STRENGTHENED_LOOP = """
:- initial(start_hundred/2).

d1. false :- A = 0, B = 0, loop_zero(A,B).
d2. loop_zero(A,B) :- A = 0, B = 0, branch_zero(A,B).
d3. loop_zero(A,B) :- A = 0, B = 0, C = 1, D = 2, loop_pos(C,D).
d4. branch_zero(A,B) :- A = 0, B = 0, C = 100, start_hundred(C,B).
d5. loop_pos(A,B) :- A >= 1, 2*A - B = 0, branch_pos(A,B).
d6. loop_pos(A,B) :- A >= 1, 2*A - B = 0, C - A = 1, D - 2*A = 2, loop_pos(C,D).
d7. branch_pos(A,B) :- A >= 1, 2*A - B = 0, A + C = 100, start_low(C,B).
d8. branch_pos(A,B) :- A >= 1, 2*A - B = 0, C - A = 100, start_high(C,B).
d9. start_hundred(A,B) :- A = 100, B = 0.
d10. start_high(A,B) :- A >= 101, 2*A - B = 200.
d11. start_low(A,B) :- A =< 99, 2*A + B = 200.
"""

NAME_MAP = {
    "while_1": "loop_zero",
    "while_2": "loop_pos",
    "if_1": "branch_zero",
    "if_2": "branch_pos",
    "init_1": "start_hundred",
    "init_2": "start_high",
    "init_3": "start_low",
}


def test_specialised_loop_matches_hand_analysis():
    pe = pe_run(load("fig1.chc")).program
    r = constraint_specialise(pe)
    assert r.deleted == ("c5",)
    want = parse_program(STRENGTHENED_LOOP)
    assert programs_equivalent(r.program, want, name_map=NAME_MAP)


def test_unreachable_pred_gets_bottom_and_its_fact_dies():
    p = parse_program(
        ":- initial(i/1).\n"
        "c1. i(A).\n"
        "c2. p(A) :- A = 1.\n"
        "c3. false :- p(A), i(B).\n"
        "c4. r(A) :- A = 7.\n"
    )
    r = constraint_specialise(p)
    assert r.invariants.call_inv(Pred("r", 1)).is_false()
    assert r.deleted == ("c4",)


def test_fact_only_answer_invariant():
    p = parse_program(
        ":- initial(i/1).\n"
        "c1. i(A).\n"
        "c2. p(A) :- A = 1.\n"
        "c3. false :- p(A), i(B).\n"
    )
    inv = invariants_for(p)
    assert inv.call_inv(Pred("p", 1)).is_true()
    assert equiv_conj(inv.ans_inv(Pred("p", 1)), conj_from([({A0: 1}, -1, "=")]))


def test_call_invariant_flows_through_recursion():
    # calls to q only ever happen at 10 or above, and the analysis sees it
    p = parse_program(
        ":- initial(i/1).\n"
        "c1. i(A).\n"
        "c2. q(A) :- A >= 5, i(A).\n"
        "c3. q(A) :- B - A = 1, q(B).\n"
        "c4. false :- A >= 10, q(A).\n"
    )
    r = constraint_specialise(p)
    kept = {cl.cid for cl in r.program.clauses}
    assert "c3" in kept  # decreasing steps from the fact stay live
    q = Pred("q", 1)
    assert entails(r.invariants.call_inv(q), conj_from([({A0: 1}, -10, ">=")]))


@pytest.mark.parametrize("name", corpus_files())
def test_strengthened_clauses_entail_sources(name):
    p = load(name)
    r = constraint_specialise(p)
    for cl in r.program.clauses:
        assert entails(cl.constr, p.clause_by_id(cl.cid).constr), cl.cid


@pytest.mark.parametrize("name", ["fig1.chc", "cs_example.chc", "counter_loop.chc"])
def test_feasible_traces_preserved(name):
    p = load(name)
    r = constraint_specialise(p)
    before = {str(t.trace()) for t, _ in iter_and_trees(p, 7)}
    after = {str(t.trace()) for t, _ in iter_and_trees(r.program, 7)}
    assert before == after


@pytest.mark.parametrize("name", corpus_files())
def test_swp_only_weakens(name):
    p = load(name)
    r = constraint_specialise(p)
    assert implies_dnf(extract_swp(p), extract_swp(r.program))


@pytest.mark.parametrize("name", corpus_files())
def test_program_shape_preserved(name):
    p = load(name)
    r = constraint_specialise(p)
    assert r.program.initial_preds == p.initial_preds
    assert r.program.init_args == p.init_args
    src = {cl.cid for cl in p.clauses}
    assert {cl.cid for cl in r.program.clauses} | set(r.deleted) == src


def test_strengthen_separately_matches_bundle():
    p = load("example_t4.chc")
    inv = invariants_for(p)
    out, deleted = strengthen(p, inv, {})
    r = constraint_specialise(p)
    assert deleted == r.deleted
    assert programs_equivalent(out, r.program)


def test_analyze_joins_only_what_it_keeps(monkeypatch):
    # cs runs on pe's output in the pipeline; the corpus and the generated
    # programs at that point
    programs = [pe_run(load(n)).program for n in corpus_files()]
    programs += [pe_run(parse_program(t)).program for t in gen_multivar_texts()]
    plain = [invariants_for(p).dump() for p in programs]
    real_join, real_entails = cs.join, cs.entails
    joined, skipped = [], []

    def spy_entails(sp, old):
        inside = real_entails(sp, old)
        if inside:
            skipped.append((old, sp))
        return inside

    def spy_join(old, sp):
        assert not real_entails(sp, old)
        joined.append((old, sp))
        return real_join(old, sp)

    monkeypatch.setattr(cs, "entails", spy_entails)
    monkeypatch.setattr(cs, "join", spy_join)
    assert [invariants_for(p).dump() for p in programs] == plain
    assert joined and skipped
    # each skipped join gives back a hull inside old, which a join-first
    # loop would have discarded too
    for old, sp in skipped:
        assert real_entails(real_join(old, sp), old)


def test_analyze_ends_at_a_post_fixpoint():
    # whatever order the clauses are visited in, no clause can add to its
    # head's final state
    programs = [load(n) for n in corpus_files()]
    programs += [parse_program(t) for t in gen_multivar_texts() + gen_twoloop_texts()]
    for p in programs:
        qa = qa_transform(pe_run(p).program)
        state = cs.analyze(qa, {})
        for cl in qa.clauses:
            sp = cs._clause_post(cl, state, {})
            assert sp is None or entails(sp, state[cl.head.pred]), cl


def _one_global_worklist(qa):
    """The fixpoint as it ran before components: every clause on one FIFO."""
    cyclic = recursive_preds(qa)
    state, joins, by_body = {}, {}, {}
    for i, cl in enumerate(qa.clauses):
        for b in cl.body:
            by_body.setdefault(b.pred, []).append(i)
    worklist = deque(range(len(qa.clauses)))
    queued = set(worklist)
    while worklist:
        i = worklist.popleft()
        queued.discard(i)
        cl = qa.clauses[i]
        sp = cs._clause_post(cl, state, {})
        head = cl.head.pred
        if sp is None or (head in state and entails(sp, state[head])):
            continue
        new = sp
        if head in state:
            new = cs.join(state[head], sp)
            if head in cyclic and joins.get(head, 0) >= cs.WIDENING_DELAY:
                new = cs.widen(state[head], new)
        joins[head] = joins.get(head, 0) + 1
        state[head] = new
        for j in by_body.get(head, ()):
            if j not in queued:
                worklist.append(j)
                queued.add(j)
    return state


def test_no_invariant_is_weaker_than_one_global_worklist_gives():
    # on the programs every cs step of the pipeline sees; draw 11 of the
    # two-loop shape is left out, as one global worklist does not finish it
    runs = [(load(n), PipelineConfig()) for n in corpus_files()]
    texts = gen_multivar_texts() + gen_twoloop_texts()[:11]
    runs += [(parse_program(t), PipelineConfig(iterations=1)) for t in texts]
    stronger = 0
    for p, cfg in runs:
        steps = run_pipeline(p, cfg).steps
        for before, step in zip(steps, steps[1:]):
            if step.label != "cs":
                continue
            qa = qa_transform(before.program)
            now, then = cs.analyze(qa, {}), _one_global_worklist(qa)
            for pred, old in then.items():
                new = now.get(pred, FALSE_CONJ)
                assert entails(new, old), (pred, old, new)
                stronger += not entails(old, new)
    assert stronger
