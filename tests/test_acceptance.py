"""Acceptance checks for the whole pipeline.

Each criterion is one test and prints one PASS or FAIL line, so a plain
`pytest -v tests/test_acceptance.py` doubles as the acceptance report.
Aggregate benchmark-table numbers are deliberately not reproduced here;
criterion 8 states the exclusion.
"""

import time
from contextlib import contextmanager
from functools import lru_cache

from chcprecond.core import Clause, Program
from chcprecond.cs import constraint_specialise
from chcprecond.derivation import find_counterexample
from chcprecond.driver import PipelineConfig, run_pipeline
from chcprecond.linarith import (
    Var,
    conj_and,
    entails,
    equiv_conj,
    equiv_dnf,
    implies_dnf,
    make_dnf,
    rename_conj,
)
from chcprecond.parser import parse_program
from chcprecond.pe import pe_run

import test_properties
from helpers import (
    conj_from,
    corpus_files,
    grid,
    holds_dnf,
    load,
    programs_equivalent,
)

A, B, C, I, N = Var("A"), Var("B"), Var("C"), Var("I"), Var("N")


@contextmanager
def _criterion(n, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {n}: FAIL  {desc}")
        raise
    print(f"criterion {n}: PASS  {desc}")


@lru_cache(maxsize=None)
def _default_report(name):
    return run_pipeline(load(name), PipelineConfig())


def test_criterion_1_propagation_only_precondition():
    with _criterion(1, "propagation alone yields the six-disjunct split"):
        t0 = time.monotonic()
        rep = run_pipeline(load("fig1.chc"), PipelineConfig(iterations=0))
        expansion = make_dnf(
            [
                conj_from([({A: 1}, -100, "="), ({B: 1}, 1, "<=")]),
                conj_from([({A: 1}, -100, "="), ({B: 1}, -1, ">=")]),
                conj_from([({A: 1}, -99, "<="), ({A: 2, B: 1}, -199, "<=")]),
                conj_from([({A: 1}, -99, "<="), ({A: 2, B: 1}, -201, ">=")]),
                conj_from([({A: 1}, -101, ">="), ({A: 2, B: -1}, -199, "<=")]),
                conj_from([({A: 1}, -101, ">="), ({A: 2, B: -1}, -201, ">=")]),
            ]
        )
        assert equiv_dnf(rep.precondition, expansion)
        for pt in grid([A, B], -50, 250):
            want = pt[B] != abs(2 * pt[A] - 200)
            assert holds_dnf(expansion, pt) == want, pt
        assert time.monotonic() - t0 < 10.0


def test_criterion_2_version_structure():
    with _criterion(2, "specialisation produces the expected versions"):
        r = pe_run(load("fig1.chc"))
        facts = [cl.constr for cl in r.program.initial_clauses()]
        assert len(facts) == 3
        for want in (
            conj_from([({A: 1}, -99, "<=")]),
            conj_from([({A: 1}, -100, "<=")]),
            conj_from([({A: 1}, -101, ">=")]),
        ):
            assert sum(1 for f in facts if equiv_conj(f, want)) == 1
        names = sorted(q.name for q in r.program.preds())
        assert len(names) == 7
        bases = {}
        for n in names:
            bases[n.rsplit("_", 1)[0]] = bases.get(n.rsplit("_", 1)[0], 0) + 1
        assert bases == {"while": 2, "if": 2, "init": 3}


CS_EXPECTED = """
:- initial(p/2).

x1. false :- A >= 0, A =< B, p(A,B).
x2. p(A,B) :- C >= A, B >= C, C >= 0, p(C,B).
x3. p(A,B) :- A = B, A >= 0.
"""


def test_criterion_3_strengthening_replay():
    with _criterion(3, "constraint propagation adds the expected conjuncts"):
        p = load("cs_example.chc")
        r = constraint_specialise(p)
        assert r.deleted == ()
        rec_added = conj_from([({B: 1, C: -1}, 0, ">="), ({C: 1}, 0, ">=")])
        got_rec = r.program.clause_by_id("c2").constr
        assert equiv_conj(got_rec, conj_and(p.clause_by_id("c2").constr, rec_added))
        assert not entails(p.clause_by_id("c2").constr, rec_added)
        fact_added = conj_from([({B: 1, A: -1}, 0, ">="), ({A: 1}, 0, ">=")])
        got_fact = r.program.clause_by_id("c3").constr
        assert equiv_conj(got_fact, conj_and(p.clause_by_id("c3").constr, fact_added))
        assert not entails(p.clause_by_id("c3").constr, fact_added)
        assert programs_equivalent(r.program, parse_program(CS_EXPECTED))


def test_criterion_4_one_elimination_round():
    with _criterion(4, "one trace elimination splits the initial state exactly"):
        t0 = time.monotonic()
        rep = run_pipeline(load("example_t4.chc"), PipelineConfig(iterations=1))
        te_steps = [s for s in rep.steps if s.label == "te"]
        assert any(s.feasible is True for s in te_steps)
        want = make_dnf(
            [conj_from([({A: 1, B: 1, N: -3}, 0, "="), ({I: 1, N: -1}, 0, ">=")])]
        )
        assert equiv_dnf(rep.precondition, want)
        assert time.monotonic() - t0 < 60.0


def _strengthen_initial_facts(p: Program, pre) -> Program:
    clauses = []
    for cl in p.clauses:
        if cl.is_fact() and cl.head.pred in p.initial_preds:
            mapping = dict(zip(p.init_args, cl.head.args))
            for k, d in enumerate(pre, start=1):
                clauses.append(
                    Clause(
                        f"{cl.cid}_s{k}",
                        cl.head,
                        conj_and(cl.constr, rename_conj(d, mapping)),
                        (),
                    )
                )
        else:
            clauses.append(cl)
    return Program(tuple(clauses), p.initial_preds, p.init_args)


def test_criterion_5_soundness_on_corpus():
    with _criterion(5, "derived preconditions block every feasible derivation"):
        for name in corpus_files():
            p = load(name)
            rep = _default_report(name)
            blocked = _strengthen_initial_facts(p, rep.precondition)
            cex = find_counterexample(blocked, 40)
            assert cex is None or cex[1] is False, name


def test_criterion_6_monotone_preconditions():
    with _criterion(6, "swp only weakens along pe, cs, and infeasible te steps"):
        for name in corpus_files():
            rep = _default_report(name)
            for prev, cur in zip(rep.steps, rep.steps[1:]):
                if cur.label in ("pe", "cs") or (
                    cur.label == "te" and cur.feasible is not True
                ):
                    assert implies_dnf(prev.swp, cur.swp), (name, cur.label)


def test_criterion_7_randomised_kernel_suites():
    with _criterion(7, "five seeded suites of 300+ instances each"):
        assert test_properties.INSTANCES >= 300
        test_properties.test_projection_is_the_exact_shadow()
        test_properties.test_negation_partitions_every_point()
        test_properties.test_join_is_an_upper_bound()
        test_properties.test_widen_keeps_a_subset_of_the_old_constraints()
        test_properties.test_difference_removes_exactly_the_chosen_tree()
        test_properties.test_query_answer_preserves_bounded_derivability()


def test_criterion_8_aggregates_excluded():
    with _criterion(
        8,
        "aggregate benchmark statistics are out of scope: no solved/unsolved "
        "counts or timing tables are claimed, only per-program results",
    ):
        assert True
