"""Polyhedral domain: convex hull join, inclusion, widening."""

from chcprecond.linarith import Var, make_conj, make_constraint
from chcprecond.polyhedra import (
    bottom_poly,
    includes,
    join,
    make_poly,
    top,
    widen,
)

import pytest

x, y = Var("x"), Var("y")
DIMS = (x, y)


def k(coeffs, const, rel="<="):
    return make_constraint(coeffs, const, rel)


def poly(*ks):
    return make_poly(DIMS, make_conj(ks))


def test_join_with_bottom_is_identity():
    q = poly(k({x: -1}, 0))
    assert join(bottom_poly(DIMS), q) == q
    assert join(q, bottom_poly(DIMS)) == q


def test_join_containment():
    wide, narrow = poly(k({x: -1}, 0)), poly(k({x: -1}, 5))
    j = join(wide, narrow)
    assert includes(j, wide) and includes(wide, j)


def test_join_of_points_is_segment():
    j = join(poly(k({x: 1}, 0, "=")), poly(k({x: 1}, -3, "=")))
    seg = poly(k({x: -1}, 0), k({x: 1}, -3))
    assert includes(j, seg) and includes(seg, j)


def test_join_keeps_shared_direction():
    a = poly(k({x: 1, y: -1}, 0, "="), k({x: 1}, 0, "="))
    b = poly(k({x: 1, y: -1}, 0, "="), k({x: 1}, -4, "="))
    j = join(a, b)
    assert includes(j, a) and includes(j, b)
    assert includes(poly(k({x: 1, y: -1}, 0, "=")), j)
    assert not includes(j, poly(k({x: 1, y: -1}, 0, "=")))


def test_includes_top_and_strictness():
    assert includes(top(DIMS), poly(k({x: 1}, 5)))
    assert not includes(poly(k({x: -1}, 1)), poly(k({x: -1}, 0)))


def test_widen_drops_unstable_bound():
    p = poly(k({x: -1}, 0), k({x: 1}, -1))
    q = poly(k({x: -1}, 0), k({x: 1}, -2))
    w = widen(p, q)
    assert includes(w, poly(k({x: -1}, 0)))
    assert includes(poly(k({x: -1}, 0)), w)


def test_widen_identity_and_bottom():
    p = poly(k({x: -1}, 0))
    assert widen(p, p) == p
    assert widen(bottom_poly(DIMS), p) == p
    assert widen(p, bottom_poly(DIMS)) == p


def test_make_poly_rejects_foreign_vars():
    with pytest.raises(ValueError, match="dimension mismatch"):
        make_poly((x,), make_conj([k({x: 1, y: 1}, 0)]))
