"""Exact feasibility checking for linear constraint systems, on integers alone.

No floating point is involved anywhere, and every number the solver holds
is a Python `int`.  The solver is a bounds-form simplex in the style used
by SMT solvers (Dutertre & de Moura, CAV 2006): a constraint
`sum(c_i * x_i) REL k` becomes a slack variable defined by the pure linear
part with `REL k` turned into bounds on the slack, and a constraint on one
variable with coefficient +-1 becomes a bound on that variable itself, with
no slack.  A scaled single-variable row keeps its slack, so that every
bound stays a pair of integers.  Every tableau is built by `_solver_for`,
the one home of that rule.  Bland's rule makes the pivot loop terminate.

The tableau is fraction-free, in the manner of Bareiss (Math. Comp. 1968).
The row of a basic variable `b` holds integer coefficients over one
positive integer denominator, `den[b] * x_b = sum(a_bj * x_j)` over the
nonbasic `x_j`, and the gcd of the denominator and all the coefficients is
1.  A pivot multiplies rows through instead of dividing, then divides a row
by that gcd when it is above 1.

Bound values are "delta-rationals" `(r, d)` meaning `r + d * delta` for an
infinitesimal positive delta.  Rows are non-strict; a strict bound is what
a query sets when `linarith` asks one tableau whether a row can fail.
Plain tuples of numbers compare lexicographically, which is exactly the
right order for delta-rationals.  Every bound is a pair of integers, and a
nonbasic variable only ever sits at 0 or at one of its bounds, so its
value is an integer pair too.  A basic variable's value is kept as the
integer pair `den[b]` times it, its row summed at the nonbasic values, and
is compared with a bound scaled by `den[b]`; the denominator is positive,
so the order is kept.

The rational values are those a tableau over the rationals would hold, so
Bland's rule makes the same pivots as one built from the same rows and
bounds.  A model is the problem variables' values as integer numerator
pairs over one common positive denominator.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Optional

Delta = tuple[int, int]
# numerator pairs and their common positive denominator
Model = tuple[list[Delta], int]

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


class Simplex:
    """Feasibility checker for conjunctions of linear bounds.

    Usage: construct with the number of problem variables, add slack rows
    for linear combinations, set bounds on slacks and on problem variables
    alike, then call `check()`.  Bounds may be replaced between checks with
    `set_bounds`, looser or tighter, and the next `check()` repairs the
    assignment the last one left instead of starting over; `linarith`'s
    entailment check and redundancy sweep ask their queries that way.  The
    branch-and-bound below builds a fresh tableau per node from the rows
    and the node's branch rows, which keeps its node count independent of
    pivots.

    The tableau is `rows`, a map from each basic variable to its row, with
    the row's denominator in `den`; a nonbasic variable's `den` is 1, so
    every variable's value is `assign[v]` over `den[v]`.  The systems are
    small, a handful of rows, so a pivot finds the rows that mention a
    variable by scanning them rather than keeping a column index.
    """

    def __init__(self, nvars: int):
        self.n = nvars
        self.lb: list[Optional[Delta]] = [None] * nvars
        self.ub: list[Optional[Delta]] = [None] * nvars
        self.assign: list[Delta] = [DZERO] * nvars
        self.den: list[int] = [1] * nvars
        # basic var -> {nonbasic var -> coefficient}
        self.rows: dict[int, dict[int, int]] = {}

    def add_var(self) -> int:
        self.lb.append(None)
        self.ub.append(None)
        self.assign.append(DZERO)
        self.den.append(1)
        return len(self.lb) - 1

    def add_slack(self, combo: dict[int, int]) -> int:
        """Introduce s = sum(combo) over nonbasic variables as a new basic one."""
        s = self.add_var()
        row = {v: c for v, c in combo.items() if c != 0}
        r = d = 0
        for v, c in row.items():
            vr, vd = self.assign[v]
            r += vr * c
            d += vd * c
        self.rows[s] = row
        self.assign[s] = (r, d)
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
                assign[b] = (br + dr * c, bd + dd * c)

    def _pivot_and_update(self, bi: int, nj: int, target: Delta) -> None:
        """Move basic bi to target through nonbasic nj, then swap the two."""
        assign, rows, den = self.assign, self.rows, self.den
        row = rows.pop(bi)
        a = row.pop(nj)
        d = den[bi]
        br, bd = assign[bi]
        nr, nd = assign[nj]
        # a * nj = d * bi - (the rest of the row), and the rest sums to
        # assign[bi] - a * nj before the move and keeps that sum after it
        vr = d * target[0] - br + a * nr
        vd = d * target[1] - bd + a * nd
        if a > 0:
            new_row = {v: -c for v, c in row.items()}
            new_row[bi] = d
        else:
            a, vr, vd = -a, -vr, -vd
            new_row = row
            new_row[bi] = -d
        # up to sign these are bi's row and denominator, so their gcd is 1
        assign[bi], den[bi] = target, 1
        assign[nj], den[nj] = (vr, vd), a
        # substitute nj away in every other row: den[b] * b = f * nj + rest
        # becomes den[b] * (a / g) * b = (f / g) * new_row + (a / g) * rest
        for b, r in rows.items():
            f = r.pop(nj, None)
            if f is None:
                continue
            g = gcd(f, a)
            fm, am = f // g, a // g
            br, bd = assign[b]
            br = am * (br - f * nr) + fm * vr
            bd = am * (bd - f * nd) + fm * vd
            db = den[b] * am
            if am != 1:
                for v in r:
                    r[v] *= am
            for v, c in new_row.items():
                merged = r.get(v, 0) + fm * c
                if merged == 0:
                    r.pop(v, None)
                else:
                    r[v] = merged
            if db != 1:
                g = gcd(db, *r.values())
                if g != 1:
                    db //= g
                    br //= g
                    bd //= g
                    for v in r:
                        r[v] //= g
            assign[b], den[b] = (br, bd), db
        rows[nj] = new_row

    def check(self) -> bool:
        """True iff the bounds admit a solution.  Leaves a model in `assign`.

        Bland's rule: the lowest-numbered basic variable out of its bounds
        leaves, and the lowest-numbered nonbasic variable of its row that can
        move it toward them enters.
        """
        assign, lb, ub, rows, den = self.assign, self.lb, self.ub, self.rows, self.den
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
                x, d = assign[b], den[b]
                if lo is not None and x < (lo if d == 1 else (lo[0] * d, lo[1] * d)):
                    target, up = lo, True
                    break
                if hi is not None and x > (hi if d == 1 else (hi[0] * d, hi[1] * d)):
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

    def model(self) -> Model:
        """The problem variables' values over one common positive denominator."""
        n, den = self.n, self.den
        common = lcm(*den[:n])
        if common == 1:
            return self.assign[:n], 1
        return [
            (r * (common // d), e * (common // d))
            for (r, e), d in zip(self.assign[:n], den)
        ], common


# -- building solvers from constraint rows ------------------------------------

Row = tuple[tuple[tuple[int, int], ...], int, str]
# ((var_index, coeff), ...), constant, rel with rel in {"=", "<="}
# meaning: sum(coeff * x) + constant  REL  0

Side = tuple[int, Optional[int], Optional[int]]
# the variable a row bounds, and its lower and upper edge there, None for a
# side the row leaves open


def _solver_for(nvars: int, rows: list[Row]) -> Optional[tuple[Simplex, list[Optional[Side]]]]:
    """A Simplex for the rows, and each row's side.

    None means a false ground row; a ground row that holds has no side.  A
    row of one variable with coefficient +-1 bounds that variable itself;
    every other row gets a slack, and rows with one combination share it.
    Each row meets the bounds already on its variable, and an empty meet
    makes `check()` fail.
    """
    sx = Simplex(nvars)
    lb, ub = sx.lb, sx.ub
    merged: dict[tuple[tuple[int, int], ...], int] = {}
    sides: list[Optional[Side]] = []
    for combo, const, rel in rows:
        if not combo:
            # a ground row holds or fails outright
            if not (const == 0 if rel == "=" else const <= 0):
                return None
            sides.append(None)
            continue
        if len(combo) == 1 and combo[0][1] == -1:
            # -x + const REL 0 bounds x from below, by const
            s, lo, hi = combo[0][0], const, (const if rel == "=" else None)
        else:
            if len(combo) == 1 and combo[0][1] == 1:
                s = combo[0][0]
            else:
                if combo not in merged:
                    merged[combo] = sx.add_slack(dict(combo))
                s = merged[combo]
            # s + const REL 0 bounds s from above, by -const
            lo, hi = (-const if rel == "=" else None), -const
        if lo is not None:
            lb[s] = dmax(lb[s], (lo, 0))
        if hi is not None:
            ub[s] = dmin(ub[s], (hi, 0))
        sides.append((s, lo, hi))
    return sx, sides


def solve(nvars: int, rows: list[Row]) -> Optional[Model]:
    """A model of the rows, numerators over a denominator, or None if they are infeasible."""
    built = _solver_for(nvars, rows)
    if built is None or not built[0].check():
        return None
    return built[0].model()


def int_feasible(nvars: int, rows: list[Row], budget: Budget) -> bool:
    """Integer feasibility by branch-and-bound over the rational relaxation.

    A node is the unit rows its branches added, each a bound on one
    variable; the side below the fractional value is visited first.
    Raises Undecided when the budget runs dry.
    """
    stack: list[list[Row]] = [[]]
    while stack:
        branch = stack.pop()
        budget.spend()
        built = _solver_for(nvars, rows + branch)
        if built is None or not built[0].check():
            continue
        # rows and branch rows are non-strict, so no value has a delta part
        model, den = built[0].model()
        fractional = None
        for v in range(nvars):
            r = model[v][0]
            if r % den:
                fractional = (v, r // den)
                break
        if fractional is None:
            return True
        v, lo = fractional
        # v >= lo + 1, as -v + lo + 1 <= 0, and v <= lo, as v - lo <= 0
        stack.append(branch + [(((v, -1),), lo + 1, "<=")])
        stack.append(branch + [(((v, 1),), -lo, "<=")])
    return False


def dmin(a: Optional[Delta], b: Delta) -> Delta:
    """The smaller of two bounds, where None is no bound."""
    return b if a is None or b < a else a


def dmax(a: Optional[Delta], b: Delta) -> Delta:
    """The larger of two bounds, where None is no bound."""
    return b if a is None or b > a else a
