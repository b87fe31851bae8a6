"""Convex polyhedra as constraint conjunctions.

Thin abstract-domain layer over the linear kernel: a polyhedron is a
satisfiable conjunction; `FALSE_CONJ` is bottom and `TRUE_CONJ` is top.
The join computes the (closed) convex hull by projecting the standard
lifted system (Benoy, King & Mesnard, TPLP 2005), so everything stays in
constraint form.
"""

from __future__ import annotations

from .linarith import (
    ConstraintConj,
    LinConstraint,
    TRUE_CONJ,
    Var,
    conj_vars,
    entails,
    make_conj,
    make_constraint,
    project,
)


def _homogenize(constr: ConstraintConj, sub: dict[Var, Var], lam: Var) -> list[LinConstraint]:
    """Rewrite each constraint over substituted vars, scaling the constant by lam."""
    out = []
    for k in constr:
        coeffs = {sub[v]: c for v, c in k.coeffs}
        if k.const != 0:
            coeffs[lam] = k.const
        out.append(make_constraint(coeffs, 0, k.rel))
    return out


def join(p: ConstraintConj, q: ConstraintConj) -> ConstraintConj:
    """Convex hull via the lifted system, projected back onto the variables."""
    if p.is_false():
        return q
    if q.is_false():
        return p
    if p.is_true() or q.is_true():
        return TRUE_CONJ
    dims = sorted(conj_vars(p) | conj_vars(q))
    sub1 = {v: Var(f"$j1{v}") for v in dims}
    sub2 = {v: Var(f"$j2{v}") for v in dims}
    l1, l2 = Var("$l1"), Var("$l2")
    system = _homogenize(p, sub1, l1) + _homogenize(q, sub2, l2)
    for v in dims:
        # v = v1 + v2
        system.append(make_constraint({v: 1, sub1[v]: -1, sub2[v]: -1}, 0, "="))
    system.append(make_constraint({l1: 1, l2: 1}, -1, "="))
    system.append(make_constraint({l1: -1}, 0, "<="))
    system.append(make_constraint({l2: -1}, 0, "<="))
    # the lifted system of two satisfiable systems is satisfiable, and so
    # is its projection
    return project(make_conj(system), dims, known_sat=True)


def widen(p: ConstraintConj, q: ConstraintConj) -> ConstraintConj:
    """Constraint widening: keep the constraints of p that q entails."""
    if p.is_false():
        return q
    if q.is_false():
        return p
    return make_conj(k for k in p if entails(q, make_conj([k])))
