"""The simplex tableau over `Fraction`s, kept as a reference for the tests.

This is the kernel as it was before its tableau went fraction-free: values
are `int`s while they are integral and become `Fraction`s where a pivot
divides inexactly.  It makes the same pivots by Bland's rule, so
`tests/test_simplex.py` checks that the integer tableau pivots on the same
pairs in the same order and leaves the same rational models.  It still
reads strict rows, which the kernel's tableau no longer takes, so
`feasible` decides the strict questions the kernel asks as bound queries.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

from chcprecond.simplex import Row, dmax, dmin

Num = Union[int, Fraction]
Delta = tuple[Num, Num]

DZERO: Delta = (0, 0)


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


class FractionSimplex:
    """Feasibility checker for conjunctions of linear bounds, over `Fraction`s.

    The interface of `chcprecond.simplex.Simplex`, except that `model()`
    gives each problem variable's value as a pair of numbers.  The tableau
    is `rows` alone, a map from each basic variable to its row.
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


def _solver_for(nvars: int, rows: list[Row]) -> Optional[FractionSimplex]:
    """Build a FractionSimplex for the rows.

    The construction of `chcprecond.simplex._solver_for`, which takes
    non-strict rows only; here a strict row `<` also gives a strict bound,
    the kind a query sets.

    None means a false ground row.  A row of one variable with coefficient
    +-1 bounds that variable itself; every other row gets a slack, and rows
    with one combination share it.  Each row meets the bounds already on
    its variable, and an empty meet makes `check()` fail.
    """
    sx = FractionSimplex(nvars)
    lb, ub = sx.lb, sx.ub
    merged: dict[tuple[tuple[int, int], ...], int] = {}
    for combo, const, rel in rows:
        if not combo:
            # a ground row holds or fails outright
            if not {"=": const == 0, "<=": const <= 0, "<": const < 0}[rel]:
                return None
            continue
        strict = -1 if rel == "<" else 0
        if len(combo) == 1 and combo[0][1] == -1:
            # -x + const REL 0 bounds x from below, by const
            v = combo[0][0]
            lb[v] = dmax(lb[v], (const, -strict))
            if rel == "=":
                ub[v] = dmin(ub[v], (const, 0))
            continue
        if len(combo) == 1 and combo[0][1] == 1:
            s = combo[0][0]
        else:
            if combo not in merged:
                merged[combo] = sx.add_slack(dict(combo))
            s = merged[combo]
        # s + const REL 0 bounds s from above, by -const
        edge = (-const, strict)
        if rel == "=":
            lb[s] = dmax(lb[s], edge)
        ub[s] = dmin(ub[s], edge)
    return sx


def feasible(nvars: int, rows: list[Row]) -> bool:
    """True iff the rows, strict ones included, have a rational model."""
    sx = _solver_for(nvars, rows)
    return sx is not None and sx.check()
