"""Exact rational feasibility checking for linear constraint systems.

No floating point is involved anywhere.  Values are Python `int`s while
they are integral and become `fractions.Fraction`s only when a division in
a pivot is inexact; every sum, product and quotient that comes out
integral goes back to `int`.  The systems met here are small and their
values almost always integral, so most arithmetic runs on machine
integers, with the same values (and so the same pivots) as all-Fraction
arithmetic would give.

The solver is a bounds-form simplex in the style used by SMT solvers
(Dutertre & de Moura, CAV 2006): every constraint `sum(c_i * x_i) REL k`
becomes a slack variable defined by the pure linear part with `REL k`
turned into bounds on the slack.  Bland's rule makes the pivot loop
terminate.

Bound values are "delta-rationals" `(r, d)` meaning `r + d * delta` for an
infinitesimal positive delta.  They let us express strict inequalities
exactly, which the entailment check in `linarith` needs when it negates a
non-strict constraint over the rationals.  Plain tuples of numbers compare
lexicographically, which is exactly the right order for delta-rationals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

Num = Union[int, Fraction]
Delta = tuple[Num, Num]

DZERO: Delta = (0, 0)


class Undecided(Exception):
    """Raised when the integer branch-and-bound runs out of node budget."""


class Budget:
    """Shared countdown for branch-and-bound node expansions."""

    def __init__(self, nodes: int):
        self.remaining = nodes

    def spend(self) -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise Undecided("branch-and-bound node budget exhausted")


def _int(x: Num) -> Num:
    """x, or the int it equals when it is an integral Fraction."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def _div(a: Num, b: Num) -> Num:
    """The exact quotient a / b: an int when b divides a."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return q if r == 0 else Fraction(a, b)
    # at least one side is a Fraction, so `/` is exact
    return _int(a / b)


class Simplex:
    """Feasibility checker for conjunctions of linear bounds.

    Usage: construct with the number of problem variables, add slack rows
    for linear combinations, set bounds, then call `check()`.  Bounds may
    be replaced between checks with `set_bounds`, looser or tighter, and
    the next `check()` repairs the assignment the last one left instead of
    starting over; `linarith`'s redundancy sweep asks all its queries of
    one tableau that way.  The branch-and-bound below still builds a fresh
    tableau per node, which keeps its node count independent of pivots.

    The tableau is `rows` alone, a map from each basic variable to its row.
    The systems are small, a handful of rows, so a pivot finds the rows that
    mention a variable by scanning them rather than keeping a column index.
    """

    def __init__(self, nvars: int):
        self.n = nvars
        self.lb: list[Optional[Delta]] = [None] * nvars
        self.ub: list[Optional[Delta]] = [None] * nvars
        self.assign: list[Delta] = [DZERO] * nvars
        # basic var -> {nonbasic var -> coefficient}
        self.rows: dict[int, dict[int, Num]] = {}

    def add_var(self) -> int:
        self.lb.append(None)
        self.ub.append(None)
        self.assign.append(DZERO)
        return len(self.lb) - 1

    def add_slack(self, combo: dict[int, Num]) -> int:
        """Introduce s = sum(combo) as a new basic variable and return it."""
        s = self.add_var()
        row = {v: c for v, c in combo.items() if c != 0}
        r = d = 0
        for v, c in row.items():
            vr, vd = self.assign[v]
            r += vr * c
            d += vd * c
        self.rows[s] = row
        self.assign[s] = (_int(r), _int(d))
        return s

    def set_bounds(self, v: int, lo: Optional[Delta], hi: Optional[Delta]) -> None:
        """Replace both bounds of v; an empty interval makes `check()` fail."""
        self.lb[v] = lo
        self.ub[v] = hi

    # -- the solving machinery ------------------------------------------------

    def _update_nonbasic(self, v: int, value: Delta) -> None:
        assign = self.assign
        dr = value[0] - assign[v][0]
        dd = value[1] - assign[v][1]
        if not dr and not dd:
            return
        assign[v] = value
        for b, row in self.rows.items():
            c = row.get(v)
            if c is not None:
                br, bd = assign[b]
                assign[b] = (_int(br + dr * c), _int(bd + dd * c))

    def _pivot_and_update(self, bi: int, nj: int, target: Delta) -> None:
        """Move basic bi to target through nonbasic nj, then swap the two."""
        assign, rows = self.assign, self.rows
        row = rows.pop(bi)
        a = row.pop(nj)
        br, bd = assign[bi]
        # nj moves by theta, and every other basic variable by theta times
        # its row's coefficient of nj
        tr, td = _div(target[0] - br, a), _div(target[1] - bd, a)
        assign[bi] = target
        nr, nd = assign[nj]
        assign[nj] = (_int(nr + tr), _int(nd + td))
        # nj = (bi - sum of the rest) / a
        new_row = {bi: _div(1, a)}
        for v, c in row.items():
            new_row[v] = _div(-c, a)
        # substitute nj away in every other row
        for b, r in rows.items():
            f = r.pop(nj, None)
            if f is None:
                continue
            br, bd = assign[b]
            assign[b] = (_int(br + tr * f), bd if not td else _int(bd + td * f))
            for v, c in new_row.items():
                merged = _int(r.get(v, 0) + f * c)
                if merged == 0:
                    r.pop(v, None)
                else:
                    r[v] = merged
        rows[nj] = new_row

    def check(self) -> bool:
        """True iff the bounds admit a solution.  Leaves a model in `assign`.

        Bland's rule: the lowest-numbered basic variable out of its bounds
        leaves, and the lowest-numbered nonbasic variable of its row that can
        move it toward them enters.
        """
        assign, lb, ub, rows = self.assign, self.lb, self.ub, self.rows
        # snap nonbasic variables into their intervals first
        for v in range(len(assign)):
            lo, hi = lb[v], ub[v]
            if lo is not None and hi is not None and lo > hi:
                return False
            if v in rows:
                continue
            if lo is not None and assign[v] < lo:
                self._update_nonbasic(v, lo)
            elif hi is not None and assign[v] > hi:
                self._update_nonbasic(v, hi)
        while True:
            for b in sorted(rows):
                lo, hi = lb[b], ub[b]
                if lo is not None and assign[b] < lo:
                    target, up = lo, True
                    break
                if hi is not None and assign[b] > hi:
                    target, up = hi, False
                    break
            else:
                return True
            row = rows[b]
            for v in sorted(row):
                # b moves up with v when their coefficient is positive
                if (row[v] > 0) == up:
                    if ub[v] is None or assign[v] < ub[v]:
                        break
                elif lb[v] is None or assign[v] > lb[v]:
                    break
            else:
                return False
            self._pivot_and_update(b, v, target)

    def model(self) -> list[Delta]:
        return self.assign[: self.n]


# -- building solvers from constraint rows ------------------------------------

Row = tuple[tuple[tuple[int, int], ...], int, str]
# ((var_index, coeff), ...), constant, rel with rel in {"=", "<=", "<"}
# meaning: sum(coeff * x) + constant  REL  0


def _solver_for(
    nvars: int,
    rows: list[Row],
    bounds: Optional[dict[int, tuple[Optional[Delta], Optional[Delta]]]] = None,
) -> Optional[Simplex]:
    """Build a Simplex for the rows under extra variable bounds.

    None means a false ground row.  Rows with one combination share a
    slack, which gets the meet of their bounds; an empty meet makes
    `check()` fail.
    """
    sx = Simplex(nvars)
    for v, (lo, hi) in (bounds or {}).items():
        sx.set_bounds(v, lo, hi)
    merged: dict[tuple[tuple[int, int], ...], int] = {}
    for combo, const, rel in rows:
        if not combo:
            # a ground row holds or fails outright
            if not {"=": const == 0, "<=": const <= 0, "<": const < 0}[rel]:
                return None
            continue
        if combo not in merged:
            merged[combo] = sx.add_slack(dict(combo))
        s = merged[combo]
        edge = (-const, -1 if rel == "<" else 0)
        lo = dmax(sx.lb[s], edge) if rel == "=" else sx.lb[s]
        sx.set_bounds(s, lo, dmin(sx.ub[s], edge))
    return sx


def solve(nvars: int, rows: list[Row]) -> Optional[list[Delta]]:
    """A model of the rows, one value per variable, or None if they are infeasible."""
    sx = _solver_for(nvars, rows)
    if sx is None or not sx.check():
        return None
    return sx.model()


def feasible(nvars: int, rows: list[Row]) -> bool:
    return solve(nvars, rows) is not None


def int_feasible(nvars: int, rows: list[Row], budget: Budget) -> bool:
    """Integer feasibility by branch-and-bound over the rational relaxation.

    All rows must be non-strict (`=` or `<=`), which is what the canonical
    constraint form guarantees.  Raises Undecided when the budget runs dry.
    """
    stack: list[dict[int, tuple[Optional[Delta], Optional[Delta]]]] = [{}]
    while stack:
        bounds = stack.pop()
        budget.spend()
        sx = _solver_for(nvars, rows, bounds)
        if sx is None or not sx.check():
            continue
        model = sx.model()
        fractional = None
        for v in range(nvars):
            r, d = model[v]
            if d != 0:
                # cannot happen for non-strict systems, but guard anyway
                raise AssertionError("delta component in integer search")
            if r.denominator != 1:
                fractional = (v, r.numerator // r.denominator)
                break
        if fractional is None:
            return True
        v, lo = fractional
        cur = bounds.get(v, (None, None))
        above = dict(bounds)
        above[v] = (dmax(cur[0], (lo + 1, 0)), cur[1])
        below = dict(bounds)
        below[v] = (cur[0], dmin(cur[1], (lo, 0)))
        stack.append(above)
        stack.append(below)
    return False


def dmin(a: Optional[Delta], b: Delta) -> Delta:
    """The smaller of two bounds, where None is no bound."""
    return b if a is None or b < a else a


def dmax(a: Optional[Delta], b: Delta) -> Delta:
    """The larger of two bounds, where None is no bound."""
    return b if a is None or b > a else a
