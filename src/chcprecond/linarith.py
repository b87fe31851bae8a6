"""Linear integer arithmetic: terms, constraints, conjunctions, DNF.

The canonical constraint form is `sum(c_i * x_i) + const REL 0` with integer
coefficients, REL either `=` or `<=`, and gcd of all coefficients together
with the constant equal to 1.  Strict relations are normalized away at
construction time using integrality (`t < 0` becomes `t + 1 <= 0`), so a
constraint built from any of `=`, `<=`, `<`, `>=`, `>` lands in the same
two-relation form.  Equalities additionally get a sign normalization so the
first coefficient in variable order is positive.

Satisfiability and entailment over the rationals go through the simplex
module; integer satisfiability layers preprocessing and branch-and-bound on
top and may raise `Undecided` when the node budget runs out.  Projection is
exact Fourier-Motzkin over the rationals with Gaussian elimination through
equalities first, which keeps the common cases small.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Iterator, Mapping, Optional

from .simplex import Budget, Row, Undecided, feasible, int_feasible

logger = logging.getLogger(__name__)

DEFAULT_BUDGET_NODES = 100_000
PROJECTION_CAP = 2000
NEGATION_CAP = 4096


@dataclass(frozen=True, order=True)
class Var:
    name: str

    def __repr__(self) -> str:
        return f"Var({self.name!r})"

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class LinTerm:
    """Integer linear expression: coefficient list plus constant."""

    coeffs: tuple[tuple[Var, int], ...]
    const: int

    def is_constant(self) -> bool:
        return not self.coeffs


def term_of(coeffs: Mapping[Var, int], const: int = 0) -> LinTerm:
    items = tuple(sorted((v, c) for v, c in coeffs.items() if c != 0))
    return LinTerm(items, const)


def t_var(v: Var) -> LinTerm:
    return LinTerm(((v, 1),), 0)


def t_const(n: int) -> LinTerm:
    return LinTerm((), n)


def t_add(a: LinTerm, b: LinTerm) -> LinTerm:
    acc = dict(a.coeffs)
    for v, c in b.coeffs:
        acc[v] = acc.get(v, 0) + c
    return term_of(acc, a.const + b.const)


def t_neg(a: LinTerm) -> LinTerm:
    return LinTerm(tuple((v, -c) for v, c in a.coeffs), -a.const)


def t_sub(a: LinTerm, b: LinTerm) -> LinTerm:
    return t_add(a, t_neg(b))


def t_scale(a: LinTerm, k: int) -> LinTerm:
    if k == 0:
        return t_const(0)
    return LinTerm(tuple((v, c * k) for v, c in a.coeffs), a.const * k)


@dataclass(frozen=True, order=True)
class LinConstraint:
    """Canonical atomic constraint: coeffs . vars + const REL 0."""

    coeffs: tuple[tuple[Var, int], ...]
    const: int
    rel: str  # "=" or "<="

    # Constraints are hashed in every set, dict and `satisfiable` cache
    # lookup, so the hash of the fields is computed once and kept
    # (Filliatre & Conchon, "Type-safe modular hash-consing", 2006).
    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.coeffs, self.const, self.rel)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return format_constraint(self)


TRUE_K = LinConstraint((), 0, "<=")
FALSE_K = LinConstraint((), 1, "<=")


def is_true_constraint(k: LinConstraint) -> bool:
    return not k.coeffs and (k.const <= 0 if k.rel == "<=" else k.const == 0)


def is_false_constraint(k: LinConstraint) -> bool:
    return not k.coeffs and not is_true_constraint(k)


def make_constraint(coeffs: Mapping[Var, int], const: int, rel: str) -> LinConstraint:
    """Build a constraint in canonical form from any of the five relations."""
    items = {v: c for v, c in coeffs.items() if c != 0}
    if rel == ">=":
        items = {v: -c for v, c in items.items()}
        const, rel = -const, "<="
    elif rel == ">":
        items = {v: -c for v, c in items.items()}
        const, rel = -const + 1, "<="
    elif rel == "<":
        const, rel = const + 1, "<="
    elif rel not in ("=", "<="):
        raise ValueError(f"unknown relation {rel!r}")
    if not items:
        if rel == "=":
            return TRUE_K if const == 0 else FALSE_K
        return TRUE_K if const <= 0 else FALSE_K
    g = 0
    for c in items.values():
        g = gcd(g, abs(c))
    g = gcd(g, abs(const))
    if g > 1:
        items = {v: c // g for v, c in items.items()}
        const //= g
    ordered = tuple(sorted(items.items()))
    if rel == "=" and ordered[0][1] < 0:
        ordered = tuple((v, -c) for v, c in ordered)
        const = -const
    return LinConstraint(ordered, const, rel)


def constraint_of_term(t: LinTerm, rel: str) -> LinConstraint:
    return make_constraint(dict(t.coeffs), t.const, rel)


def negate_constraint(k: LinConstraint) -> tuple[LinConstraint, ...]:
    """Integer negation.  One disjunct for <=, two for =."""
    neg = {v: -c for v, c in k.coeffs}
    if k.rel == "<=":
        return (make_constraint(neg, -k.const + 1, "<="),)
    pos = dict(k.coeffs)
    return (
        make_constraint(pos, k.const + 1, "<="),
        make_constraint(neg, -k.const + 1, "<="),
    )


def subst_constraint(k: LinConstraint, mapping: Mapping[Var, LinTerm]) -> LinConstraint:
    acc = t_const(k.const)
    for v, c in k.coeffs:
        acc = t_add(acc, t_scale(mapping.get(v, t_var(v)), c))
    return constraint_of_term(acc, k.rel)


def rename_constraint(k: LinConstraint, mapping: Mapping[Var, Var]) -> LinConstraint:
    coeffs: dict[Var, int] = {}
    for v, c in k.coeffs:
        w = mapping.get(v, v)
        coeffs[w] = coeffs.get(w, 0) + c
    return make_constraint(coeffs, k.const, k.rel)


def constraint_vars(k: LinConstraint) -> tuple[Var, ...]:
    return tuple(v for v, _ in k.coeffs)


def eval_constraint(k: LinConstraint, env: Mapping[Var, int]) -> bool:
    total = k.const + sum(c * env[v] for v, c in k.coeffs)
    return total == 0 if k.rel == "=" else total <= 0


# -- conjunctions --------------------------------------------------------------


@dataclass(frozen=True, order=True)
class ConstraintConj:
    """Sorted, deduplicated conjunction.  Empty tuple means true."""

    constraints: tuple[LinConstraint, ...]

    # the hash of the fields, cached as in LinConstraint
    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.constraints,)))

    def __hash__(self) -> int:
        return self._hash

    def is_false(self) -> bool:
        return any(is_false_constraint(k) for k in self.constraints)

    def is_true(self) -> bool:
        return not self.constraints

    def __iter__(self) -> Iterator[LinConstraint]:
        return iter(self.constraints)

    def __len__(self) -> int:
        return len(self.constraints)

    def __str__(self) -> str:
        return format_conj(self)


TRUE_CONJ = ConstraintConj(())
FALSE_CONJ = ConstraintConj((FALSE_K,))


def make_conj(constraints: Iterable[LinConstraint]) -> ConstraintConj:
    out = set()
    for k in constraints:
        if is_true_constraint(k):
            continue
        if is_false_constraint(k):
            return FALSE_CONJ
        out.add(k)
    # merge opposing inequality pairs back into equalities
    for k in sorted(out):
        if k not in out or k.rel != "<=":
            continue
        mirror = LinConstraint(tuple((v, -c) for v, c in k.coeffs), -k.const, "<=")
        if mirror in out:
            out.discard(k)
            out.discard(mirror)
            out.add(make_constraint(dict(k.coeffs), k.const, "="))
    return ConstraintConj(tuple(sorted(out)))


def conj_and(a: ConstraintConj, b: ConstraintConj) -> ConstraintConj:
    return make_conj(a.constraints + b.constraints)


def conj_vars(c: ConstraintConj) -> frozenset[Var]:
    return frozenset(v for k in c for v in constraint_vars(k))


def rename_conj(c: ConstraintConj, mapping: Mapping[Var, Var]) -> ConstraintConj:
    return make_conj(rename_constraint(k, mapping) for k in c)


def subst_conj(c: ConstraintConj, mapping: Mapping[Var, LinTerm]) -> ConstraintConj:
    return make_conj(subst_constraint(k, mapping) for k in c)


def eval_conj(c: ConstraintConj, env: Mapping[Var, int]) -> bool:
    return all(eval_constraint(k, env) for k in c)


# -- rational reasoning --------------------------------------------------------


def _index_vars(c: ConstraintConj, extra: Iterable[LinConstraint] = ()) -> dict[Var, int]:
    seen: dict[Var, int] = {}
    for k in list(c.constraints) + list(extra):
        for v, _ in k.coeffs:
            if v not in seen:
                seen[v] = len(seen)
    return seen


def _to_row(k: LinConstraint, index: Mapping[Var, int], rel: Optional[str] = None) -> Row:
    combo = tuple(sorted((index[v], c) for v, c in k.coeffs))
    return (combo, k.const, rel or k.rel)


@lru_cache(maxsize=65536)
def satisfiable(c: ConstraintConj) -> bool:
    """Rational satisfiability, exact."""
    if c.is_false():
        return False
    if c.is_true():
        return True
    index = _index_vars(c)
    rows = [_to_row(k, index) for k in c]
    return feasible(len(index), rows)


def entails(c: ConstraintConj, d: ConstraintConj) -> bool:
    """Rational entailment: every point of c satisfies all of d."""
    if c.is_false():
        return True
    for k in d:
        if is_true_constraint(k):
            continue
        if not _entails_one(c, k):
            return False
    return True


def _entails_one(c: ConstraintConj, k: LinConstraint) -> bool:
    index = _index_vars(c, (k,))
    rows = [_to_row(j, index) for j in c]
    neg_combo = tuple(sorted((index[v], -cf) for v, cf in k.coeffs))
    pos_combo = tuple(sorted((index[v], cf) for v, cf in k.coeffs))
    if k.rel == "<=":
        # negation is a strict inequality over the rationals
        return not feasible(len(index), rows + [(neg_combo, -k.const, "<")])
    above = feasible(len(index), rows + [(neg_combo, -k.const, "<")])
    if above:
        return False
    return not feasible(len(index), rows + [(pos_combo, k.const, "<")])


def equiv_conj(a: ConstraintConj, b: ConstraintConj) -> bool:
    return entails(a, b) and entails(b, a)


def _drop_redundant(c: ConstraintConj) -> ConstraintConj:
    """Drop constraints entailed by the rest.  Rational, so sound."""
    if c.is_false() or len(c) <= 1:
        return c
    kept = list(c.constraints)
    for k in sorted(c.constraints):
        if k not in kept:
            continue
        rest = [j for j in kept if j != k]
        if entails(ConstraintConj(tuple(rest)), ConstraintConj((k,))):
            kept = rest
    return make_conj(kept)


def simplify(c: ConstraintConj) -> ConstraintConj:
    """Integer-preserving cleanup: gcd tightening, redundancy, equalities.

    Raises ValueError on rationally unsatisfiable input, since tightening a
    contradiction can silently change its rational reading.
    """
    if c.is_false() or not satisfiable(c):
        raise ValueError("unsat input")
    return _drop_redundant(make_conj(_tighten(k) for k in c))


# -- integer reasoning ---------------------------------------------------------


def _tighten(k: LinConstraint) -> LinConstraint:
    """Integer gcd tightening for inequalities.  Canonical in, canonical out."""
    if k.rel != "<=" or not k.coeffs:
        return k
    g = 0
    for _, c in k.coeffs:
        g = gcd(g, abs(c))
    if g <= 1:
        return k
    coeffs = {v: c // g for v, c in k.coeffs}
    return make_constraint(coeffs, -((-k.const) // g), "<=")


def _int_preprocess(constraints: tuple[LinConstraint, ...]):
    """Simplification loop before branch-and-bound.

    Returns (decided, residual): decided is True or False when the system is
    settled here, otherwise None with the residual constraint list.
    """
    work = list(constraints)
    while True:
        ground_false = False
        cleaned = []
        for k in work:
            if is_true_constraint(k):
                continue
            if is_false_constraint(k):
                ground_false = True
                break
            cleaned.append(_tighten(k))
        if ground_false:
            return False, ()
        work = cleaned
        # canonical equalities with a common coefficient divisor can never
        # hit an integer point (the gcd would have divided the constant too)
        for k in work:
            if k.rel == "=" and len(k.coeffs) >= 1:
                g = 0
                for _, c in k.coeffs:
                    g = gcd(g, abs(c))
                if g > 1:
                    return False, ()
        pivot = None
        for k in work:
            if k.rel == "=":
                for v, c in k.coeffs:
                    if abs(c) == 1:
                        pivot = (k, v, c)
                        break
            if pivot:
                break
        if pivot is None:
            break
        eq, v, c = pivot
        # v = -(rest + const) / c with c = +-1
        rest = {w: cf for w, cf in eq.coeffs if w != v}
        replacement = term_of({w: -cf * c for w, cf in rest.items()}, -eq.const * c)
        mapping = {v: replacement}
        work = [subst_constraint(k, mapping) for k in work if k is not eq]
    if not work:
        return True, ()
    return None, tuple(work)


def int_satisfiable(c: ConstraintConj, budget: Optional[Budget] = None) -> bool:
    """Integer satisfiability.  May raise Undecided on hard instances."""
    if c.is_false():
        return False
    if not satisfiable(c):
        return False
    decided, residual = _int_preprocess(c.constraints)
    if decided is not None:
        return decided
    index: dict[Var, int] = {}
    for k in residual:
        for v, _ in k.coeffs:
            if v not in index:
                index[v] = len(index)
    rows = [_to_row(k, index) for k in residual]
    if budget is None:
        budget = Budget(DEFAULT_BUDGET_NODES)
    return int_feasible(len(index), rows, budget)


# -- projection ----------------------------------------------------------------


def project(c: ConstraintConj, keep: Iterable[Var]) -> ConstraintConj:
    """Existentially quantify away every variable not in `keep`.

    Exact over the rationals.  If the intermediate constraint count blows
    past the cap, the largest constants get dropped first, which weakens the
    result but never makes it wrong as an over-approximation.
    """
    keep_set = set(keep)
    if c.is_false() or not satisfiable(c):
        return FALSE_CONJ
    drop = sorted(conj_vars(c) - keep_set)
    if not drop:
        return c
    work = list(c.constraints)
    # Gaussian phase: use equalities to eliminate what we can
    while True:
        chosen = None
        for v in drop:
            candidates = [
                (abs(dict(k.coeffs)[v]), k)
                for k in work
                if k.rel == "=" and v in dict(k.coeffs)
            ]
            if candidates:
                chosen = (v, min(candidates)[1])
                break
        if chosen is None:
            break
        v, eq = chosen
        a = dict(eq.coeffs)[v]
        out = []
        for k in work:
            if k is eq:
                continue
            b = dict(k.coeffs).get(v, 0)
            if b == 0:
                out.append(k)
                continue
            combined = _combine(k, abs(a), eq, -(1 if a > 0 else -1) * b)
            if not is_true_constraint(combined):
                out.append(combined)
        work = out
        drop.remove(v)
    # Fourier-Motzkin phase for the rest
    while drop:
        counts = {}
        for v in drop:
            pos = sum(1 for k in work if dict(k.coeffs).get(v, 0) > 0)
            neg = sum(1 for k in work if dict(k.coeffs).get(v, 0) < 0)
            counts[v] = (pos * neg, v.name)
        v = min(drop, key=lambda w: counts[w])
        drop.remove(v)
        pos, neg, rest = [], [], []
        for k in work:
            cf = dict(k.coeffs).get(v, 0)
            if cf > 0:
                pos.append((cf, k))
            elif cf < 0:
                neg.append((cf, k))
            else:
                rest.append(k)
        new = set(rest)
        for a, p in pos:
            for b, n in neg:
                combined = _combine(p, -b, n, a)
                if not is_true_constraint(combined):
                    new.add(combined)
        work = sorted(new)
        if len(work) > PROJECTION_CAP:
            logger.warning(
                "projection exceeded %d constraints, dropping the loosest",
                PROJECTION_CAP,
            )
            work.sort(key=lambda k: (abs(k.const), k))
            work = sorted(work[:PROJECTION_CAP])
    result = make_conj(work)
    if len(result) <= 60:
        # entailment-based cleanup only; gcd tightening would shrink the
        # rational shadow and projection promises exactness over rationals
        result = _drop_redundant(result)
    return result


def _combine(a: LinConstraint, ka: int, b: LinConstraint, kb: int) -> LinConstraint:
    """ka*a + kb*b with ka > 0 so the relation of `a` survives."""
    coeffs: dict[Var, int] = {}
    for v, c in a.coeffs:
        coeffs[v] = coeffs.get(v, 0) + ka * c
    for v, c in b.coeffs:
        coeffs[v] = coeffs.get(v, 0) + kb * c
    rel = "=" if a.rel == "=" and b.rel == "=" else "<="
    return make_constraint(coeffs, ka * a.const + kb * b.const, rel)


# -- disjunctive normal form ---------------------------------------------------


@dataclass(frozen=True, order=True)
class DNF:
    """Disjunction of conjunctions.  Empty tuple means false."""

    disjuncts: tuple[ConstraintConj, ...]

    def is_false(self) -> bool:
        return not self.disjuncts

    def is_true(self) -> bool:
        return any(d.is_true() for d in self.disjuncts)

    def __iter__(self) -> Iterator[ConstraintConj]:
        return iter(self.disjuncts)

    def __len__(self) -> int:
        return len(self.disjuncts)

    def __str__(self) -> str:
        return format_dnf(self)


DNF_FALSE = DNF(())
DNF_TRUE = DNF((TRUE_CONJ,))


def make_dnf(disjuncts: Iterable[ConstraintConj], prune: bool = True) -> DNF:
    seen = set()
    kept = []
    for d in disjuncts:
        if d in seen or d.is_false():
            continue
        if prune and not satisfiable(d):
            continue
        seen.add(d)
        kept.append(d)
    # absorption: a disjunct with a superset of another's constraints is weaker
    pairs = [(d, frozenset(d.constraints)) for d in kept]
    out = [d for d, s in pairs if not any(t < s for _, t in pairs)]
    return DNF(tuple(sorted(out)))


def dnf_of_conj(c: ConstraintConj) -> DNF:
    return make_dnf((c,))


def dnf_or(a: DNF, b: DNF) -> DNF:
    return make_dnf(a.disjuncts + b.disjuncts)


def dnf_and(a: DNF, b: DNF) -> DNF:
    return make_dnf(conj_and(x, y) for x in a for y in b)


def negate_conj(c: ConstraintConj) -> DNF:
    """Integer complement of a conjunction, as a DNF."""
    if c.is_false():
        return DNF_TRUE
    if c.is_true():
        return DNF_FALSE
    pieces = []
    for k in c:
        for nk in negate_constraint(k):
            pieces.append(make_conj((nk,)))
    return make_dnf(pieces)


def negate_dnf(d: DNF) -> DNF:
    """Integer complement of a DNF.  Distributes with pruning as it goes."""
    acc = [TRUE_CONJ]
    for disjunct in d:
        neg = negate_conj(disjunct)
        nxt = set()
        for a in acc:
            for piece in neg:
                merged = conj_and(a, piece)
                if not merged.is_false() and satisfiable(merged):
                    nxt.add(merged)
        acc = sorted(nxt)
        if len(acc) > NEGATION_CAP:
            logger.warning("negation exceeded %d disjuncts, truncating", NEGATION_CAP)
            acc = acc[:NEGATION_CAP]
    return make_dnf(acc)


def rename_dnf(d: DNF, mapping: Mapping[Var, Var]) -> DNF:
    return make_dnf(rename_conj(c, mapping) for c in d)


def dnf_vars(d: DNF) -> frozenset[Var]:
    out: frozenset[Var] = frozenset()
    for c in d:
        out |= conj_vars(c)
    return out


def eval_dnf(d: DNF, env: Mapping[Var, int]) -> bool:
    return any(eval_conj(c, env) for c in d)


def implies_dnf(a: DNF, b: DNF, budget: Optional[Budget] = None) -> bool:
    """Integer inclusion: every integer point of a lies in b."""
    if budget is None:
        budget = Budget(DEFAULT_BUDGET_NODES)
    for d in a:
        if not _covered(d, list(b.disjuncts), budget):
            return False
    return True


def _covered(conj: ConstraintConj, disjuncts: list[ConstraintConj], budget: Budget) -> bool:
    if not int_satisfiable(conj, budget):
        return True
    if not disjuncts:
        return False
    head, rest = disjuncts[0], disjuncts[1:]
    for k in head:
        for nk in negate_constraint(k):
            piece = conj_and(conj, make_conj((nk,)))
            if not _covered(piece, rest, budget):
                return False
    return True


def equiv_dnf(a: DNF, b: DNF, budget: Optional[Budget] = None) -> bool:
    if budget is None:
        budget = Budget(DEFAULT_BUDGET_NODES)
    return implies_dnf(a, b, budget) and implies_dnf(b, a, budget)


# -- printing ------------------------------------------------------------------


def _format_side(coeffs: tuple[tuple[Var, int], ...]) -> str:
    parts = []
    for v, c in coeffs:
        if not parts:
            if c == 1:
                parts.append(v.name)
            elif c == -1:
                parts.append(f"-{v.name}")
            else:
                parts.append(f"{c}*{v.name}")
        else:
            sign = " + " if c > 0 else " - "
            mag = abs(c)
            parts.append(sign + (v.name if mag == 1 else f"{mag}*{v.name}"))
    return "".join(parts)


def format_constraint(k: LinConstraint) -> str:
    if is_true_constraint(k):
        return "true"
    if is_false_constraint(k):
        return "false"
    coeffs, const, rel = k.coeffs, k.const, "=" if k.rel == "=" else "=<"
    if k.rel == "<=" and coeffs[0][1] < 0:
        # flip so the leading coefficient is positive
        coeffs = tuple((v, -c) for v, c in coeffs)
        const, rel = -const, ">="
    return f"{_format_side(coeffs)} {rel} {-const}"


def format_conj(c: ConstraintConj) -> str:
    if c.is_true():
        return "true"
    if c.is_false():
        return "false"
    return ", ".join(format_constraint(k) for k in c)


def format_dnf(d: DNF) -> str:
    if d.is_false():
        return "false"
    if d.is_true():
        return "true"
    if len(d) == 1:
        return format_conj(d.disjuncts[0])
    return " ; ".join(f"({format_conj(c)})" for c in d)
