"""Linear integer arithmetic: constraints, conjunctions, DNF.

A linear term has no type of its own: it is a coefficient map plus a
constant, the form `make_constraint` takes and `_combine` adds in.  The
canonical constraint form is `sum(c_i * x_i) + const REL 0` with integer
coefficients, REL either `=` or `<=`, and gcd of all coefficients together
with the constant equal to 1.  Strict relations are normalized away at
construction time using integrality (`t < 0` becomes `t + 1 <= 0`), so a
constraint built from any of `=`, `<=`, `<`, `>=`, `>` lands in the same
two-relation form.  Equalities additionally get a sign normalization so the
first coefficient in variable order is positive.

A conjunction is canonical too: `make_conj` keeps one integer interval
`[lo, hi]` per sign-normalised coefficient row and emits it as one
equality when `lo == hi`, as at most two inequalities `row <= hi` and
`-row <= -lo` otherwise, or as false when the interval is empty.  Rows that
differ by a scale factor stay apart; the redundancy sweep catches those.

The kernel builds, hashes, sorts and compares variables and constraints
millions of times per run, so both are C-backed values.  A `Var` is a `str`
subclass: it hashes, compares and sorts as its name, and so equals the
plain `str` of its name.  A `LinConstraint` is a named tuple of
`(coeffs, const, rel)`, ordered field by field.

Satisfiability and entailment over the rationals go through the simplex
module; integer satisfiability layers preprocessing and branch-and-bound on
top and may raise `Undecided` when the node budget runs out.  Projection is
exact Fourier-Motzkin over the rationals with Gaussian elimination through
equalities first, which keeps the common cases small.

Entailment builds a tableau only when the constraints' syntax leaves the
question open: a bound on the same signed row at least as tight entails a
constraint outright.  Otherwise entailment, like the redundancy sweep,
asks bound queries of one tableau from `simplex._solver_for`: a query
sets the bounds of a constraint's variable or slack to its strict
negation, and the constraint can fail iff the query is feasible.

Within one `run_pipeline` call, `project`, `_drop_redundant` and
`_entails_one` remember their answers in the `Run` that `RUN` holds, since
each round re-specialises a program that changed little.  Outside a run
they compute directly, and `satisfiable`'s cache is the only one that
outlives a run.

The `Run` also keeps a witness point per satisfiable conjunction: the model
the tableau that decided it leaves in its assignment, exact, as integer
numerators over one common positive denominator.  One constraint needs no
tableau: its point is written down.  A conjunction inherits
its point when `conj_and` makes it, from an operand whose point holds at
every constraint of the other operand; `satisfiable` answers such a
conjunction without a tableau, and a premise whose point violates a
constraint does not entail it.  The points live only in the run, like the
memo.

Caps that weaken a result report it through `warn`, which adds the message
to the current run's `warnings` and prints it to stderr outside a run.
"""

from __future__ import annotations

import sys
from contextvars import ContextVar
from functools import lru_cache, total_ordering
from math import gcd
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

from .simplex import Budget, Row, _solver_for, dmax, dmin, int_feasible, solve


DEFAULT_BUDGET_NODES = 100_000
PROJECTION_CAP = 2000
NEGATION_CAP = 4096
# later disjuncts `implies_dnf` tries to cover a piece with
COVER_WINDOW = 32


class Var(str):
    """A variable: a `str` subclass, so hashing, equality and ordering run in C.

    A `str` caches its own hash, and a `Var` sorts by its name.  A `Var`
    equals the plain `str` of its name and hashes like it, so a dict or set
    that mixed the two would merge `Var("A")` with `"A"`; none does, and the
    sets of taken names used when renaming apart hold names only.
    """

    __slots__ = ()

    name = property(str.__str__, doc="The name as a plain `str`.")

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


class LinConstraint(NamedTuple):
    """Canonical atomic constraint: coeffs . vars + const REL 0.

    A tuple, so hashing and ordering run in C, field by field.
    """

    coeffs: tuple[tuple[Var, int], ...]
    const: int
    rel: str  # "=" or "<="

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


def rename_constraint(k: LinConstraint, mapping: Mapping[Var, Var]) -> LinConstraint:
    coeffs: dict[Var, int] = {}
    for v, c in k.coeffs:
        w = mapping.get(v, v)
        coeffs[w] = coeffs.get(w, 0) + c
    return make_constraint(coeffs, k.const, k.rel)


def constraint_vars(k: LinConstraint) -> tuple[Var, ...]:
    return tuple(v for v, _ in k.coeffs)


# -- conjunctions --------------------------------------------------------------


@total_ordering
class ConstraintConj:
    """Canonical conjunction, built by `make_conj`.  Empty tuple means true.

    Per sign-normalised coefficient row it holds one equality, or at most
    one upper bound `row <= hi` and one lower bound `-row <= -lo`, so no two
    constraints share a signed row.  The constraints are sorted.

    A conjunction equals only another conjunction, and conjunctions order
    by their constraint tuples.  They are hashed in every `satisfiable`
    cache lookup and DNF set, so the hash is computed once and kept.
    """

    __slots__ = ("constraints", "_hash")

    def __init__(self, constraints: tuple[LinConstraint, ...]) -> None:
        self.constraints = constraints
        self._hash = hash((constraints,))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is ConstraintConj:
            return self.constraints == other.constraints
        return NotImplemented

    def __lt__(self, other: ConstraintConj) -> bool:
        if other.__class__ is ConstraintConj:
            return self.constraints < other.constraints
        return NotImplemented

    def is_false(self) -> bool:
        # a canonical false conjunction is FALSE_K alone, and no other
        # constraint of a canonical conjunction is ground
        return self.constraints[:1] == _FALSE_ONLY

    def is_true(self) -> bool:
        return not self.constraints

    def __iter__(self) -> Iterator[LinConstraint]:
        return iter(self.constraints)

    def __len__(self) -> int:
        return len(self.constraints)

    def __repr__(self) -> str:
        return f"ConstraintConj(constraints={self.constraints!r})"

    def __str__(self) -> str:
        return format_conj(self)


_FALSE_ONLY = (FALSE_K,)
TRUE_CONJ = ConstraintConj(())
FALSE_CONJ = ConstraintConj(_FALSE_ONLY)


def make_conj(constraints: Iterable[LinConstraint]) -> ConstraintConj:
    """The canonical conjunction of `constraints` (see `ConstraintConj`).

    Each row keeps the tightest bound on each side; bounds that meet make an
    equality, and bounds that cross make the conjunction false.
    """
    # sign-normalised row (first coefficient positive) -> its `[lo, hi]`
    # bounds, None for a side without one
    bounds: dict[tuple[tuple[Var, int], ...], list] = {}
    for k in constraints:
        if not k.coeffs:
            if is_false_constraint(k):
                return FALSE_CONJ
            continue
        row, edge = k.coeffs, -k.const
        if row[0][1] > 0:
            lo, hi = (edge if k.rel == "=" else None), edge
        else:
            # `row <= edge` is `-row >= -edge`; equalities are sign-normalised
            row, lo, hi = tuple((v, -c) for v, c in row), -edge, None
        cur = bounds.setdefault(row, [lo, hi])
        if lo is not None and (cur[0] is None or lo > cur[0]):
            cur[0] = lo
        if hi is not None and (cur[1] is None or hi < cur[1]):
            cur[1] = hi
    out: list[LinConstraint] = []
    for row, (lo, hi) in bounds.items():
        if lo is not None and hi is not None:
            if lo > hi:
                return FALSE_CONJ
            if lo == hi:
                out.append(LinConstraint(row, -lo, "="))
                continue
        if hi is not None:
            out.append(LinConstraint(row, -hi, "<="))
        if lo is not None:
            out.append(LinConstraint(tuple((v, -c) for v, c in row), lo, "<="))
    out.sort()
    return ConstraintConj(tuple(out))


def conj_and(a: ConstraintConj, b: ConstraintConj) -> ConstraintConj:
    """`make_conj(a.constraints + b.constraints)`; a true or false operand decides it.

    Within a run the result inherits a point of a that holds at every
    constraint of b, or else a point of b that holds at every constraint of
    a: c holds exactly where a and b both hold, so such a point lies in c.
    """
    if not b.constraints:
        return a
    if not a.constraints:
        return b
    if a.is_false() or b.is_false():
        return FALSE_CONJ
    c = make_conj(a.constraints + b.constraints)
    run = RUN.get()
    if run is not None and c not in run.models:
        for point, other in ((run.models.get(a), b), (run.models.get(b), a)):
            if point is not None and all(_holds_at(k, point) for k in other):
                run.models[c] = point
                break
    return c


def conj_vars(c: ConstraintConj) -> frozenset[Var]:
    return frozenset(v for k in c for v in constraint_vars(k))


def rename_conj(c: ConstraintConj, mapping: Mapping[Var, Var]) -> ConstraintConj:
    """c with each variable renamed by `mapping`; unmapped ones stay.

    A renaming that is injective on c's variables keeps every constraint
    canonical up to the order of its coefficients and the sign of an
    equality, and keeps the rows of c apart, so the result is c's
    constraints re-sorted, with no `make_conj`.
    """
    image = {v: mapping.get(v, v) for k in c for v, _ in k.coeffs}
    if len(set(image.values())) < len(image):
        return make_conj(rename_constraint(k, mapping) for k in c)
    out = []
    for k in c:
        coeffs, const = sorted((image[v], cf) for v, cf in k.coeffs), k.const
        if k.rel == "=" and coeffs[0][1] < 0:
            coeffs, const = [(v, -cf) for v, cf in coeffs], -const
        out.append(LinConstraint(tuple(coeffs), const, k.rel))
    out.sort()
    return ConstraintConj(tuple(out))


# -- the run context -----------------------------------------------------------


# A point: integer numerators of the nonzero variables over one positive
# denominator, the form `simplex` models take
Point = tuple[dict[Var, int], int]


class Run:
    """Kernel answers and warnings kept for the length of one pipeline run.

    The analysis re-specialises programs that change little from round to
    round, so one run asks the same kernel questions many times.
    `run_pipeline` installs a fresh `Run` in `RUN` and resets it when the run
    ends, so no answer or warning outlives its run or reaches another
    thread's.  Outside a run `RUN` holds None and every function computes
    directly.

    `project`, `drop_redundant` and `entails_one` map a call's arguments to
    its result.  `models` maps a conjunction to a point of it, or to None
    when it has none: each conjunction whose tableau `satisfiable` read,
    and each that `conj_and` made at a point of an operand.  `warnings`
    collects what the run gave up, in the order `warn` was called.
    """

    __slots__ = ("project", "drop_redundant", "entails_one", "models", "warnings")

    def __init__(self) -> None:
        self.project: dict[tuple[ConstraintConj, frozenset[Var]], ConstraintConj] = {}
        self.drop_redundant: dict[ConstraintConj, ConstraintConj] = {}
        self.entails_one: dict[tuple[ConstraintConj, LinConstraint], bool] = {}
        self.models: dict[ConstraintConj, Optional[Point]] = {}
        self.warnings: list[str] = []


RUN: ContextVar[Optional[Run]] = ContextVar("RUN", default=None)


def warn(message: str) -> None:
    """Report a cap, budget or timeout the current run hit; stderr outside a run."""
    run = RUN.get()
    if run is None:
        print(message, file=sys.stderr)
    else:
        run.warnings.append(message)


# -- rational reasoning --------------------------------------------------------


def _index_vars(constraints: Iterable[LinConstraint]) -> dict[Var, int]:
    seen: dict[Var, int] = {}
    for k in constraints:
        for v, _ in k.coeffs:
            if v not in seen:
                seen[v] = len(seen)
    return seen


def _to_row(k: LinConstraint, index: Mapping[Var, int]) -> Row:
    combo = tuple(sorted((index[v], c) for v, c in k.coeffs))
    return (combo, k.const, k.rel)


@lru_cache(maxsize=65536)
def satisfiable(c: ConstraintConj) -> bool:
    """Rational satisfiability, exact.

    Within a run a conjunction the run holds a point of, or knows has none,
    is answered from `Run.models`; otherwise `_solve_point` decides, and the
    point it finds, or None when there is none, is remembered as c's.
    """
    if c.is_false():
        return False
    if not c.constraints:
        return True
    run = RUN.get()
    if run is not None and c in run.models:
        return run.models[c] is not None
    point = _solve_point(c)
    if run is not None:
        run.models[c] = point
    return point is not None


def _solve_point(c: ConstraintConj) -> Optional[Point]:
    """A point of c, or None when c has none; variables at 0 are left out.

    One constraint `a*v + ... + const REL 0` holds where its first variable
    v is -const/a and every other one is 0.  Otherwise the point is the
    tableau's model, which has no delta part: the rows are non-strict.
    """
    if len(c) == 1:
        (k,) = c.constraints
        (v, a), const = k.coeffs[0], k.const
        num = -const if a > 0 else const
        return ({v: num} if num else {}), abs(a)
    index = _index_vars(c)
    solution = solve(len(index), [_to_row(k, index) for k in c])
    if solution is None:
        return None
    model, den = solution
    return {v: model[i][0] for v, i in index.items() if model[i][0]}, den


def _holds_at(k: LinConstraint, point: Point) -> bool:
    """True when k holds at the point, where unmentioned variables are 0."""
    nums, den = point
    # den times k's left side at the point; den is positive
    total = k.const * den
    for v, cf in k.coeffs:
        x = nums.get(v)
        if x:
            total += cf * x
    return total == 0 if k.rel == "=" else total <= 0


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
    run = RUN.get()
    if run is not None:
        hit = run.entails_one.get((c, k))
        if hit is not None:
            return hit
    point = None if run is None else run.models.get(c)
    if _same_row_bound(c, k):
        ok = True
    elif point is not None and not _holds_at(k, point):
        # a point of c violates k
        ok = False
    else:
        ok = not _can_fail(c, k)
    if run is not None:
        run.entails_one[(c, k)] = ok
    return ok


def _can_fail(c: ConstraintConj, k: LinConstraint) -> bool:
    """True when a point of c violates k, asked of one tableau.

    The tableau is c's with k's row attached.  k fails above its upper edge
    or below its lower one: a query per side, in turn, sets k's variable or
    slack to the strict negation of that edge met with c's own bounds there.
    """
    if not k.coeffs:
        # `entails` skips a true ground k, so k is false
        return satisfiable(c)
    index = _index_vars((*c, k))
    sx, sides = _solver_for(len(index), [_to_row(j, index) for j in (*c, k)])
    *rest, (s, lo, hi) = sides
    # the bounds c puts on s, before k's own edges met them
    c_lo = max(((e, 0) for v, e, _ in rest if v == s and e is not None), default=None)
    c_hi = min(((e, 0) for v, _, e in rest if v == s and e is not None), default=None)
    queries = []
    if hi is not None:
        queries.append((dmax(c_lo, (hi, 1)), c_hi))
    if lo is not None:
        queries.append((c_lo, dmin(c_hi, (lo, -1))))
    for query in queries:
        sx.set_bounds(s, *query)
        if sx.check():
            return True
    return False


def _same_row_bound(c: ConstraintConj, k: LinConstraint) -> bool:
    """True when c holds k, or a bound on k's signed row at least as tight.

    `c` is canonical, so it holds at most one constraint on k's signed row:
    an inequality `row + e <= 0`, or an equality, which is sign-normalised
    and so may be written on the negated row.
    """
    if k.rel == "=":
        return k in c.constraints
    row = k.coeffs
    neg = tuple((v, -cf) for v, cf in row) if row and row[0][1] < 0 else None
    for j in c:
        if j.coeffs == row:
            # row <= -j.const, and k asks for row <= -k.const
            return j.const >= k.const
        if j.coeffs == neg and j.rel == "=":
            # row == j.const
            return j.const + k.const <= 0
    return False


def _drop_redundant(c: ConstraintConj) -> ConstraintConj:
    """Drop constraints entailed by the rest.  Rational, so sound.

    The constraints are visited in sorted order, and each one entailed by
    the others still kept is dropped for good (see `_sweep`).  The answer is
    remembered for the rest of the run.
    """
    if c.is_false() or len(c) <= 1:
        return c
    run = RUN.get()
    if run is not None:
        hit = run.drop_redundant.get(c)
        if hit is not None:
            return hit
    out = _sweep(c)
    if run is not None:
        run.drop_redundant[c] = out
    return out


def _sweep(c: ConstraintConj) -> ConstraintConj:
    """The redundancy sweep of `_drop_redundant`: a query per constraint, on one tableau.

    `c` comes from `make_conj`, so no constraint is ground and no two share
    a signed row: in the tableau `_solver_for` builds, a variable holds at
    most one upper and one lower bound, or one equality, and each slack
    belongs to one constraint.  Asking whether the rest entails k replaces
    the bounds of k's variable by the strict negation of k (each side in
    turn for an equality) and re-checks from the last assignment: k is
    entailed iff that is infeasible.  A kept constraint restores the
    bounds, and a dropped one clears its side.
    """
    index = _index_vars(c)
    sx, sides = _solver_for(len(index), [_to_row(k, index) for k in c])
    kept = []
    for k, (s, lo, hi) in zip(c, sides):
        # k fails above its upper edge and below its lower one.  A bound the
        # rest keeps on the other side lies beyond the edge, since no two
        # canonical bounds on one variable meet or cross, so it holds there
        # anyway and the query leaves it out
        queries = []
        if hi is not None:
            queries.append(((hi, 1), None))
        if lo is not None:
            queries.append((None, (lo, -1)))
        was = sx.lb[s], sx.ub[s]
        for query in queries:
            sx.set_bounds(s, *query)
            if sx.check():
                # a point of the rest violates k: keep it
                sx.set_bounds(s, *was)
                kept.append(k)
                break
        else:
            # k goes, and with it its side of the bounds
            sx.set_bounds(s, was[0] if lo is None else None, was[1] if hi is None else None)
    # a subset of a canonical conjunction is canonical, and still sorted
    return ConstraintConj(tuple(kept))


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
                        pivot = (k, v)
                        break
            if pivot:
                break
        if pivot is None:
            break
        eq, v = pivot
        work = _eliminate(work, v, eq)
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
    index = _index_vars(residual)
    rows = [_to_row(k, index) for k in residual]
    if budget is None:
        budget = Budget(DEFAULT_BUDGET_NODES)
    return int_feasible(len(index), rows, budget)


# -- projection ----------------------------------------------------------------


def project(c: ConstraintConj, keep: Iterable[Var], known_sat: bool = False) -> ConstraintConj:
    """Existentially quantify away every variable not in `keep`.

    Exact over the rationals.  If the intermediate constraint count blows
    past the cap, the largest constants get dropped first, which weakens the
    result but never makes it wrong as an over-approximation.  Within a run
    the answer is remembered, unless the cap was hit: such a call reports its
    warning again each time it is made.  A caller that knows c is
    satisfiable says so with `known_sat`, which spares the check.
    """
    keep_set = frozenset(keep)
    run = RUN.get()
    if run is not None:
        hit = run.project.get((c, keep_set))
        if hit is not None:
            return hit
    result, capped = _project(c, keep_set, known_sat)
    if run is not None and not capped:
        run.project[(c, keep_set)] = result
    return result


def project_onto(
    c: ConstraintConj, args: tuple[Var, ...], onto: tuple[Var, ...]
) -> ConstraintConj:
    """c projected onto an atom's `args`, renamed positionally onto `onto`."""
    return rename_conj(project(c, args), dict(zip(args, onto)))


def _project(
    c: ConstraintConj, keep_set: frozenset[Var], known_sat: bool
) -> tuple[ConstraintConj, bool]:
    """`project`'s result, and whether it hit `PROJECTION_CAP`."""
    if c.is_false() or not (known_sat or satisfiable(c)):
        return FALSE_CONJ, False
    drop = sorted(conj_vars(c) - keep_set)
    if not drop:
        return c, False
    capped = False
    work = list(c.constraints)
    # Gaussian phase: use equalities to eliminate what we can; each step
    # reads every constraint's coefficients from one dict
    while True:
        rows = [(k, dict(k.coeffs)) for k in work]
        chosen = None
        for v in drop:
            candidates = [(abs(d[v]), k) for k, d in rows if k.rel == "=" and v in d]
            if candidates:
                chosen = (v, min(candidates)[1])
                break
        if chosen is None:
            break
        v, eq = chosen
        work = _eliminate(work, v, eq)
        drop.remove(v)
    # Fourier-Motzkin phase for the rest
    while drop:
        rows = [(k, dict(k.coeffs)) for k in work]
        counts = {}
        for v in drop:
            pos = sum(1 for _, d in rows if d.get(v, 0) > 0)
            neg = sum(1 for _, d in rows if d.get(v, 0) < 0)
            counts[v] = (pos * neg, v.name)
        v = min(drop, key=lambda w: counts[w])
        drop.remove(v)
        pos, neg, rest = [], [], []
        for k, d in rows:
            cf = d.get(v, 0)
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
            warn(f"projection exceeded {PROJECTION_CAP} constraints, dropping the loosest")
            work.sort(key=lambda k: (abs(k.const), k))
            work = sorted(work[:PROJECTION_CAP])
            capped = True
    result = make_conj(work)
    if len(result) <= 60:
        # entailment-based cleanup only; gcd tightening would shrink the
        # rational shadow and projection promises exactness over rationals
        result = _drop_redundant(result)
    return result, capped


def _eliminate(work: list[LinConstraint], v: Var, eq: LinConstraint) -> list[LinConstraint]:
    """One Gaussian step: v cancelled from every constraint through the equality eq.

    A constraint that holds b*v, scaled by |a| with a v's coefficient in eq,
    gains the multiple of eq that cancels v; a = +-1 scales nothing.  A
    constraint made true is dropped, and eq itself cancels to true.
    """
    a = dict(eq.coeffs)[v]
    out = []
    for k in work:
        b = dict(k.coeffs).get(v)
        if b:
            k = _combine(k, abs(a), eq, -b if a > 0 else b)
            if is_true_constraint(k):
                continue
        out.append(k)
    return out


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


@total_ordering
class DNF:
    """Disjunction of conjunctions.  Empty tuple means false.

    Compared, ordered and hashed like `ConstraintConj`, by its disjuncts.
    """

    __slots__ = ("disjuncts", "_hash")

    def __init__(self, disjuncts: tuple[ConstraintConj, ...]) -> None:
        self.disjuncts = disjuncts
        self._hash = hash((disjuncts,))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is DNF:
            return self.disjuncts == other.disjuncts
        return NotImplemented

    def __lt__(self, other: DNF) -> bool:
        if other.__class__ is DNF:
            return self.disjuncts < other.disjuncts
        return NotImplemented

    def is_false(self) -> bool:
        return not self.disjuncts

    def is_true(self) -> bool:
        return any(d.is_true() for d in self.disjuncts)

    def __iter__(self) -> Iterator[ConstraintConj]:
        return iter(self.disjuncts)

    def __len__(self) -> int:
        return len(self.disjuncts)

    def __repr__(self) -> str:
        return f"DNF(disjuncts={self.disjuncts!r})"

    def __str__(self) -> str:
        return format_dnf(self)


DNF_FALSE = DNF(())
DNF_TRUE = DNF((TRUE_CONJ,))


def make_dnf(disjuncts: Iterable[ConstraintConj]) -> DNF:
    seen = set()
    kept = []
    for d in disjuncts:
        if d in seen or d.is_false():
            continue
        if not satisfiable(d):
            continue
        seen.add(d)
        kept.append(d)
    # absorb supersets of another disjunct: without it fig1 at 4 iterations ends
    # with 12 disjuncts instead of 11 and takes ~6% more CPU time
    pairs = [(d, frozenset(d.constraints)) for d in kept]
    out = [d for d, s in pairs if not any(t < s for _, t in pairs)]
    return DNF(tuple(sorted(out)))


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


def subtract(pieces: Iterable[ConstraintConj], d: ConstraintConj) -> list[ConstraintConj]:
    """The integer points of the pieces outside d, as satisfiable pieces.

    A piece that shares no rational point with d shares no integer one
    either, so it lies outside d whole and stays as it is.  Any other piece
    is cut by each of d's negated constraints, and the cuts that stay
    satisfiable replace it.
    """
    neg: Optional[DNF] = None
    out = []
    for a in pieces:
        if not satisfiable(conj_and(a, d)):
            out.append(a)
            continue
        if neg is None:
            neg = negate_conj(d)
        for nk in neg:
            piece = conj_and(a, nk)
            if satisfiable(piece):
                out.append(piece)
    return out


def negate_dnf(d: DNF) -> DNF:
    """Integer complement of a DNF.

    Subtracts one disjunct at a time from true (`subtract`), absorbing
    supersets after each step, so the cap counts only pieces the result
    could keep.  A piece that misses a disjunct stays whole; only a piece
    that meets it is split by its negated constraints.
    """
    acc: tuple[ConstraintConj, ...] = (TRUE_CONJ,)
    for disjunct in d:
        acc = make_dnf(subtract(acc, disjunct)).disjuncts
        if len(acc) > NEGATION_CAP:
            warn(f"negation exceeded {NEGATION_CAP} disjuncts, truncating")
            acc = acc[:NEGATION_CAP]
    # a prefix of an absorbed, sorted tuple is absorbed and sorted
    return DNF(acc)


def implies_dnf(a: DNF, b: DNF, budget: Optional[Budget] = None) -> bool:
    """Integer inclusion: every integer point of a lies in b.

    Each disjunct of a has b's disjuncts subtracted from it in turn
    (`subtract`), depth first, on an explicit stack rather than one Python
    frame per disjunct of b; a lies in b iff no piece is left
    integer-feasible.  A piece that misses b's next disjunct stays whole and
    moves past it without a split, and so past every disjunct it misses;
    only a piece that meets a disjunct is split by its negated constraints.
    A piece with no rational point is dropped at once.  A piece split by b's
    first i disjuncts that entails one of the rest over the rationals lies
    in b, since rational entailment implies integer inclusion, and is
    dropped before any integer check.  Only the next `COVER_WINDOW`
    disjuncts are tried, each by `entails`, which within a run refutes a
    constraint that fails at the piece's point without a tableau.  The
    check drops only pieces that lie in b, so the window bounds its cost on
    a long b and keeps the answer sound; it also spares budget nodes.
    """
    if budget is None:
        budget = Budget(DEFAULT_BUDGET_NODES)
    n = len(b.disjuncts)
    stack = [(d, 0) for d in reversed(a.disjuncts)]
    while stack:
        conj, i = stack.pop()
        if not satisfiable(conj):
            continue
        if any(entails(conj, d) for d in b.disjuncts[i : i + COVER_WINDOW]):
            continue
        if not int_satisfiable(conj, budget):
            continue
        pieces = [conj]
        while pieces == [conj]:
            if i == n:
                return False
            pieces = subtract(pieces, b.disjuncts[i])
            i += 1
        stack.extend((piece, i) for piece in reversed(pieces))
    return True


def equiv_dnf(a: DNF, b: DNF) -> bool:
    """Integer equivalence: `implies_dnf` both ways, on one node budget."""
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
