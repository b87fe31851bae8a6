"""Polyhedral domain over conjunctions: convex hull join and widening."""

from chcprecond.linarith import (
    FALSE_CONJ,
    TRUE_CONJ,
    Var,
    entails,
    make_conj,
    make_constraint,
)
from chcprecond.polyhedra import join, widen

from helpers import equiv_conj

x, y = Var("x"), Var("y")


def k(coeffs, const, rel="<="):
    return make_constraint(coeffs, const, rel)


def poly(*ks):
    return make_conj(ks)


def test_join_with_bottom_is_identity():
    q = poly(k({x: -1}, 0))
    assert join(FALSE_CONJ, q) == q
    assert join(q, FALSE_CONJ) == q


def test_join_containment():
    wide, narrow = poly(k({x: -1}, 0)), poly(k({x: -1}, 5))
    assert equiv_conj(join(wide, narrow), wide)


def test_join_of_points_is_segment():
    j = join(poly(k({x: 1}, 0, "=")), poly(k({x: 1}, -3, "=")))
    assert equiv_conj(j, poly(k({x: -1}, 0), k({x: 1}, -3)))


def test_join_keeps_shared_direction():
    a = poly(k({x: 1, y: -1}, 0, "="), k({x: 1}, 0, "="))
    b = poly(k({x: 1, y: -1}, 0, "="), k({x: 1}, -4, "="))
    j = join(a, b)
    assert entails(a, j) and entails(b, j)
    assert entails(j, poly(k({x: 1, y: -1}, 0, "=")))
    assert not entails(poly(k({x: 1, y: -1}, 0, "=")), j)


def test_join_over_different_variables():
    # a variable only one side mentions is unbounded on the other, so the
    # hull of x = 0 and y = 0 constrains neither
    assert join(poly(k({x: 1}, 0, "=")), poly(k({y: 1}, 0, "="))) == TRUE_CONJ


def test_join_with_top_is_top():
    assert join(TRUE_CONJ, poly(k({x: 1}, 5))) == TRUE_CONJ
    assert join(poly(k({x: 1}, 5)), TRUE_CONJ) == TRUE_CONJ


def test_includes_top_and_strictness():
    # p includes q when q entails p
    assert entails(poly(k({x: 1}, 5)), TRUE_CONJ)
    assert not entails(poly(k({x: -1}, 0)), poly(k({x: -1}, 1)))


def test_widen_drops_unstable_bound():
    p = poly(k({x: -1}, 0), k({x: 1}, -1))
    q = poly(k({x: -1}, 0), k({x: 1}, -2))
    assert equiv_conj(widen(p, q), poly(k({x: -1}, 0)))


def test_widen_identity_and_bottom():
    p = poly(k({x: -1}, 0))
    assert widen(p, p) == p
    assert widen(FALSE_CONJ, p) == p
    assert widen(p, FALSE_CONJ) == p
