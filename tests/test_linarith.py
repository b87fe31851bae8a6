"""Constraint layer: satisfiability, entailment, projection, DNF algebra."""

import random

import pytest

from chcprecond.linarith import (
    DNF,
    DNF_FALSE,
    DNF_TRUE,
    TRUE_CONJ,
    Var,
    dnf_of_conj,
    dnf_or,
    entails,
    equiv_conj,
    equiv_dnf,
    implies_dnf,
    int_satisfiable,
    make_conj,
    make_constraint,
    make_dnf,
    negate_conj,
    negate_dnf,
    project,
    satisfiable,
    simplify,
)
from chcprecond.simplex import Budget, Undecided

from helpers import holds_conj, holds_dnf

x, y = Var("x"), Var("y")
A, B = Var("A"), Var("B")


def k(coeffs, const, rel="<="):
    return make_constraint(coeffs, const, rel)


def test_contradictory_bounds_unsat():
    assert not satisfiable(make_conj([k({x: -1}, 1), k({x: 1}, 0)]))


def test_equality_recovered_from_opposed_bounds():
    c = make_conj([k({x: 1}, -3), k({x: -1}, 3)])
    assert equiv_conj(c, make_conj([k({x: 1}, -3, "=")]))


def test_entails_basic():
    assert entails(make_conj([k({x: 1}, -1, "=")]), make_conj([k({x: -1}, 0)]))
    assert not entails(make_conj([k({x: -1}, 0)]), make_conj([k({x: -1}, 1)]))


def test_project_drops_bound_variable():
    c = make_conj([k({x: 1, y: -1}, 0), k({y: 1}, -5)])
    assert equiv_conj(project(c, {x}), make_conj([k({x: 1}, -5)]))


def test_project_onto_nothing_is_true():
    assert project(make_conj([k({x: -1}, 1)]), set()).is_true()


def test_negate_true_and_false():
    assert negate_conj(TRUE_CONJ) == DNF_FALSE
    assert negate_dnf(DNF_FALSE) == DNF_TRUE


def test_negate_mixed_conjunction():
    c = make_conj([k({A: 1}, -99), k({A: 2, B: 1}, -200, "=")])
    expected = [
        make_conj([k({A: -1}, 100)]),
        make_conj([k({A: 2, B: 1}, -199)]),
        make_conj([k({A: -2, B: -1}, 201)]),
    ]
    got = negate_conj(c)
    assert len(got) == 3
    for d in expected:
        assert any(equiv_conj(d, g) for g in got)


def test_negate_point():
    c = make_conj([k({A: 1}, -100, "="), k({B: 1}, 0, "=")])
    assert len(negate_conj(c)) == 4


def test_negation_is_exact_on_a_grid():
    """Each integer point satisfies the conjunction or its negation, never both."""
    rng = random.Random(7)
    vars = (x, y)
    for _ in range(60):
        c = make_conj(
            k(
                {v: rng.randint(-3, 3) for v in vars},
                rng.randint(-6, 6),
                rng.choice(("<=", ">=", "=")),
            )
            for _ in range(rng.randint(1, 3))
        )
        neg = negate_conj(c)
        for gx in range(-4, 5):
            for gy in range(-4, 5):
                pt = {x: gx, y: gy}
                assert holds_conj(c, pt) != holds_dnf(neg, pt)


def test_simplify_tightens_integer_bounds():
    assert simplify(make_conj([k({x: 2}, -5)])) == make_conj([k({x: 1}, -2)])


def test_simplify_drops_weaker_bound():
    assert simplify(make_conj([k({x: 1}, -3), k({x: 1}, -5)])) == make_conj(
        [k({x: 1}, -3)]
    )


def test_simplify_merges_opposed_bounds():
    assert simplify(make_conj([k({x: 1}, -3), k({x: -1}, 3)])) == make_conj(
        [k({x: 1}, -3, "=")]
    )


def test_simplify_rejects_unsat():
    with pytest.raises(ValueError):
        simplify(make_conj([k({x: 1}, 0), k({x: -1}, 1)]))


def test_int_satisfiable_gap():
    assert satisfiable(make_conj([k({x: 2}, -1, "=")]))
    assert not int_satisfiable(make_conj([k({x: 2}, -1, "=")]))


def test_implies_dnf_absorption():
    a = dnf_of_conj(make_conj([k({x: -1}, 0)]))
    b = negate_dnf(DNF_FALSE)
    assert implies_dnf(a, b)
    assert equiv_dnf(a, a)


def test_equiv_dnf_absorbs_covered_disjunct():
    a = dnf_of_conj(make_conj([k({x: -1}, 0)]))
    ab = dnf_or(a, dnf_of_conj(make_conj([k({x: -1}, 5)])))
    assert equiv_dnf(a, ab)
    assert not equiv_dnf(dnf_of_conj(make_conj([k({x: -1}, 1)])), a)


def test_budget_exhaustion_is_reported():
    c = make_conj(
        [
            k({x: 3, y: 5}, -1, "="),
            k({x: -1}, 0),
            k({y: -1}, 0),
            k({x: 1}, -1),
            k({y: 1}, -1),
        ]
    )
    assert satisfiable(c)
    with pytest.raises(Undecided):
        int_satisfiable(c, Budget(0))
    assert not int_satisfiable(c)


def test_make_dnf_absorbs_deduplicates_and_sorts():
    small = make_conj([k({x: 1}, 0)])
    big = make_conj([k({x: 1}, 0), k({y: 1}, 0)])
    other = make_conj([k({y: -1}, 3)])
    unsat = make_conj([k({x: 1}, 0), k({x: -1}, 1)])
    d = make_dnf([big, other, small, unsat, other, small])
    # the proper superset is absorbed, repeats collapse, unsat goes
    assert d == DNF(tuple(sorted([small, other])))
    assert list(d.disjuncts) == sorted(d.disjuncts)
    assert make_dnf([big, small], prune=False) == DNF((small,))
    assert make_dnf([unsat]).is_false()


def test_equal_constraints_hash_equal():
    a = make_conj([k({x: 2, y: -4}, 6), k({y: 1}, 0, "=")])
    b = make_conj([k({y: 1}, 0, "="), k({x: 1, y: -2}, 3)])
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash((a.constraints,))
    for c in a:
        assert hash(c) == hash((c.coeffs, c.const, c.rel))
    assert len({a, b, make_conj(list(b))}) == 1
