"""Convex polyhedra over a fixed tuple of dimensions.

Thin abstract-domain layer over the linear kernel: a polyhedron is a
satisfiable constraint conjunction over named dimensions, plus an explicit
bottom element.  The join computes the (closed) convex hull by projecting
the standard lifted system, so everything stays in constraint form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linarith import (
    ConstraintConj,
    FALSE_CONJ,
    LinConstraint,
    TRUE_CONJ,
    Var,
    conj_vars,
    entails,
    make_conj,
    make_constraint,
    project,
    rename_conj,
    satisfiable,
)


@dataclass(frozen=True)
class Polyhedron:
    dims: tuple[Var, ...]
    constr: ConstraintConj
    bottom: bool = False

    def is_top(self) -> bool:
        return not self.bottom and self.constr.is_true()

    def __str__(self) -> str:
        if self.bottom:
            return "bottom"
        return str(self.constr)


def top(dims: tuple[Var, ...]) -> Polyhedron:
    return Polyhedron(dims, TRUE_CONJ)


def bottom_poly(dims: tuple[Var, ...]) -> Polyhedron:
    return Polyhedron(dims, TRUE_CONJ, bottom=True)


def make_poly(dims: tuple[Var, ...], constr: ConstraintConj) -> Polyhedron:
    """Canonicalize: unsat collapses to bottom; extra variables are rejected."""
    extra = conj_vars(constr) - set(dims)
    if extra:
        names = ", ".join(sorted(v.name for v in extra))
        raise ValueError(f"dimension mismatch: constraint mentions {names}")
    if not satisfiable(constr):
        return bottom_poly(dims)
    return Polyhedron(dims, constr)


def _same_dims(p: Polyhedron, q: Polyhedron) -> None:
    if p.dims != q.dims:
        raise ValueError("dimension mismatch")


def _homogenize(constr: ConstraintConj, sub: dict[Var, Var], lam: Var) -> list[LinConstraint]:
    """Rewrite each constraint over substituted vars, scaling the constant by lam."""
    out = []
    for k in constr:
        coeffs = {sub[v]: c for v, c in k.coeffs}
        if k.const != 0:
            coeffs[lam] = k.const
        out.append(make_constraint(coeffs, 0, k.rel))
    return out


def join(p: Polyhedron, q: Polyhedron) -> Polyhedron:
    """Convex hull via the lifted system, projected back onto dims."""
    _same_dims(p, q)
    if p.bottom:
        return q
    if q.bottom:
        return p
    if p.is_top() or q.is_top():
        return top(p.dims)
    sub1 = {v: Var(f"$j1{i}") for i, v in enumerate(p.dims)}
    sub2 = {v: Var(f"$j2{i}") for i, v in enumerate(p.dims)}
    l1, l2 = Var("$l1"), Var("$l2")
    system = _homogenize(p.constr, sub1, l1) + _homogenize(q.constr, sub2, l2)
    for v in p.dims:
        # v = v1 + v2
        system.append(make_constraint({v: 1, sub1[v]: -1, sub2[v]: -1}, 0, "="))
    system.append(make_constraint({l1: 1, l2: 1}, -1, "="))
    system.append(make_constraint({l1: -1}, 0, "<="))
    system.append(make_constraint({l2: -1}, 0, "<="))
    # the lifted system of two satisfiable systems is satisfiable, and so
    # is its projection
    return Polyhedron(p.dims, project(make_conj(system), set(p.dims), known_sat=True))


def includes(p: Polyhedron, q: Polyhedron) -> bool:
    """True iff q's solutions are contained in p's."""
    _same_dims(p, q)
    if q.bottom:
        return True
    if p.bottom:
        return False
    return entails(q.constr, p.constr)


def widen(p: Polyhedron, q: Polyhedron) -> Polyhedron:
    """Constraint widening: keep the constraints of p that q entails."""
    _same_dims(p, q)
    if p.bottom:
        return q
    if q.bottom:
        return p
    kept = [k for k in p.constr if entails(q.constr, make_conj([k]))]
    return Polyhedron(p.dims, make_conj(kept))


def constr_at(p: Polyhedron, args: tuple[Var, ...]) -> ConstraintConj:
    """The polyhedron's constraint positionally renamed onto args."""
    if len(args) != len(p.dims):
        raise ValueError("dimension mismatch")
    if p.bottom:
        return FALSE_CONJ
    return rename_conj(p.constr, dict(zip(p.dims, args)))
