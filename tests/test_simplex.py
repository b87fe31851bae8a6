"""The exact simplex kernel, checked against references written here.

Rational feasibility is compared with a Fourier-Motzkin decision over
`Fraction`s, integer feasibility with enumeration of a box, and every
model `check()` reports is evaluated against its rows in delta-rational
arithmetic, read through the model's denominator.  The tableau itself is
checked against the one it replaced, kept in `fraction_simplex` as a
reference: on the same systems both pivot on the same pairs in the same
order and leave the same rational models.  The type checks pin the kernel's
arithmetic: every row holds `int`s alone over a positive denominator, with
no common factor left.  The kernel's rows are non-strict; a strict row is
built here as the strict bound a query would set on the variable or slack
of its non-strict row.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

import fraction_simplex
from chcprecond.simplex import Budget, Simplex, Undecided, _solver_for, dmax, dmin, int_feasible

RELS = ("=", "<=", "<")


def solver_for(nvars, rows):
    """`_solver_for`'s tableau, where a row may also be strict.

    The kernel's rows are non-strict, and a strict bound comes from a query
    on the variable or slack a row bounds.  So a strict row `<` is built as
    its `<=` row, and then that row's edge is made strict.
    """
    if any(not combo and rel == "<" and const == 0 for combo, const, rel in rows):
        return None
    built = _solver_for(nvars, [(c, k, "<=" if rel == "<" else rel) for c, k, rel in rows])
    if built is None:
        return None
    sx, sides = built
    for (_, _, rel), side in zip(rows, sides):
        if rel == "<" and side is not None:
            v, lo, hi = side
            if lo is not None:
                sx.lb[v] = dmax(sx.lb[v], (lo, 1))
            if hi is not None:
                sx.ub[v] = dmin(sx.ub[v], (hi, -1))
    return sx


def fm_feasible(nvars, rows):
    """Fourier-Motzkin decision of `sum(c * x) + const REL 0` rows."""
    # each row as ({var: coeff}, const, strict) meaning sum + const < 0 or <= 0
    work = []
    for combo, const, rel in rows:
        coeffs = {v: Fraction(c) for v, c in combo}
        if rel == "=":
            work.append((coeffs, Fraction(const), False))
            work.append(({v: -c for v, c in coeffs.items()}, Fraction(-const), False))
        else:
            work.append((coeffs, Fraction(const), rel == "<"))
    for v in range(nvars):
        pos = [r for r in work if r[0].get(v, 0) > 0]
        neg = [r for r in work if r[0].get(v, 0) < 0]
        nxt = [r for r in work if r[0].get(v, 0) == 0]
        for pc, pk, ps in pos:
            for nc, nk, ns in neg:
                a, b = pc[v], -nc[v]
                coeffs = {}
                for w in set(pc) | set(nc):
                    c = b * pc.get(w, 0) + a * nc.get(w, 0)
                    if w != v and c != 0:
                        coeffs[w] = c
                nxt.append((coeffs, b * pk + a * nk, ps or ns))
        work = nxt
    return all(const < 0 if strict else const <= 0 for _, const, strict in work)


def holds(row, model):
    """The row's truth at a delta-rational model, for every small delta."""
    combo, const, rel = row
    r = const + sum(c * model[v][0] for v, c in combo)
    d = sum(c * model[v][1] for v, c in combo)
    value = (r, d)
    if rel == "=":
        return value == (0, 0)
    if rel == "<=":
        return value <= (0, 0)
    return value < (0, 0)


def random_rows(rng, nvars, nrows, rels=RELS, span=3):
    rows = []
    for _ in range(nrows):
        vs = sorted(rng.sample(range(nvars), rng.randint(0 if rng.random() < 0.05 else 1, nvars)))
        combo = tuple((v, rng.choice([c for c in range(-span, span + 1) if c])) for v in vs)
        rows.append((combo, rng.randint(-5, 5), rng.choice(rels)))
    return rows


def values(sx):
    """Every number the tableau holds: coefficients, denominators, bounds, assignment."""
    out = [c for row in sx.rows.values() for c in row.values()] + sx.den
    for b in sx.lb + sx.ub + sx.assign:
        if b is not None:
            out.extend(b)
    return out


def rational(model):
    """A model's numerator pairs divided through by its denominator."""
    nums, den = model
    return [(Fraction(r, den), Fraction(d, den)) for r, d in nums]


def test_feasible_matches_fourier_motzkin():
    rng = random.Random(2024)
    feasible_seen = infeasible_seen = 0
    for _ in range(600):
        nvars = rng.randint(1, 3)
        rows = random_rows(rng, nvars, rng.randint(1, 6))
        expected = fm_feasible(nvars, rows)
        sx = solver_for(nvars, rows)
        assert (sx is not None and sx.check()) == expected, rows
        feasible_seen += expected
        infeasible_seen += not expected
    # both answers are exercised
    assert feasible_seen > 100 and infeasible_seen > 100


def test_models_satisfy_every_row():
    rng = random.Random(7)
    checked = 0
    for _ in range(600):
        nvars = rng.randint(1, 3)
        rows = random_rows(rng, nvars, rng.randint(1, 6))
        sx = solver_for(nvars, rows)
        if sx is None or not sx.check():
            continue
        model = rational(sx.model())
        for row in rows:
            assert holds(row, model), (rows, model)
        checked += 1
    assert checked > 200


def test_rows_are_integer_and_gcd_normalised():
    rng = random.Random(11)
    fractional_rows = 0
    for _ in range(600):
        nvars = rng.randint(1, 3)
        sx = solver_for(nvars, random_rows(rng, nvars, rng.randint(1, 6)))
        if sx is None:
            continue
        sx.check()
        assert all(type(x) is int for x in values(sx))
        for b, row in sx.rows.items():
            assert sx.den[b] > 0
            assert math.gcd(sx.den[b], *row.values()) == 1, (sx.den[b], row)
            fractional_rows += sx.den[b] > 1
        # a nonbasic variable sits at an integer pair, over no denominator
        assert all(sx.den[v] == 1 for v in range(len(sx.den)) if v not in sx.rows)
    # inexact pivots do happen, and they leave rows over a denominator
    assert fractional_rows > 0


def pivots_and_models(monkeypatch, cls, solver_for, read_model, systems):
    """Per check: whether it succeeds, its pivots as (basic, nonbasic) pairs
    in order, and the rational model `read_model` reads off a success.

    After the first check of a system, its bounds are replaced by the
    system's redraws one at a time, and each is checked again from the last
    assignment, as the redundancy sweep does.
    """
    seen = []
    pivot = cls._pivot_and_update

    def recorded_pivot(self, bi, nj, target):
        seen.append((bi, nj))
        return pivot(self, bi, nj, target)

    monkeypatch.setattr(cls, "_pivot_and_update", recorded_pivot)
    out = []
    for nvars, rows, redraws in systems:
        sx = solver_for(nvars, rows)
        if sx is None:
            out.append(None)
            continue
        for bounds in [{}] + redraws:
            for v, (lo, hi) in bounds.items():
                sx.set_bounds(v, lo, hi)
            seen.clear()
            ok = sx.check()
            out.append((ok, list(seen), read_model(sx) if ok else None))
    return out


def test_pivots_and_models_match_the_fraction_tableau(monkeypatch):
    rng = random.Random(13)
    systems = []
    for _ in range(700):
        nvars = rng.randint(1, 4)
        rows = random_rows(rng, nvars, rng.randint(1, 7))
        # bounds to redraw on a problem variable or a slack; a row of one
        # variable with coefficient +-1 bounds that variable and has none
        slacks = {c for c, _, _ in rows if len(c) > 1 or c and abs(c[0][1]) > 1}
        redraws = []
        for _ in range(rng.randint(0, 3)):
            v = rng.randrange(nvars + len(slacks))
            lo, hi = rng.randint(-6, 6), rng.randint(-6, 6)
            redraws.append({v: (rng.choice([None, (lo, 0), (lo, 1)]),
                                rng.choice([None, (hi, 0), (hi, -1)]))})
        systems.append((nvars, rows, redraws))
    ints = pivots_and_models(
        monkeypatch, Simplex, solver_for, lambda sx: rational(sx.model()), systems
    )
    fractions = pivots_and_models(
        monkeypatch, fraction_simplex.FractionSimplex, fraction_simplex._solver_for,
        fraction_simplex.FractionSimplex.model, systems,
    )
    assert ints == fractions
    checks = [r for r in ints if r is not None]
    # both answers, and pivots that divide inexactly, are exercised
    assert sum(ok for ok, _, _ in checks) > 500 and sum(not ok for ok, _, _ in checks) > 200
    assert sum(len(p) for _, p, _ in checks) > 1000
    assert any(x.denominator > 1 for _, _, m in checks if m for pair in m for x in pair)


def test_unit_coefficients_keep_the_tableau_integral():
    # x <= -1, x + y >= 3, x - y + z = 0: check() pivots, all divisions exact
    rows = [
        (((0, 1),), 1, "<="),
        (((0, -1), (1, -1)), 3, "<="),
        (((0, 1), (1, -1), (2, 1)), 0, "="),
    ]
    sx, _ = _solver_for(3, rows)
    assert sx.check()
    assert any(v < 3 for v in sx.rows), "no problem variable became basic"
    assert all(type(x) is int for x in values(sx))
    assert sx.den == [1] * len(sx.den)
    for row in rows:
        assert holds(row, rational(sx.model()))


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("rel", RELS)
def test_a_unit_row_bounds_its_variable_with_no_slack(rel, sign):
    # sign * x + 2 REL 0
    sx = solver_for(1, [(((0, sign),), 2, rel)])
    assert not sx.rows and len(sx.lb) == len(sx.ub) == 1
    delta = -1 if rel == "<" else 0
    if sign == 1:
        # x REL -2
        expected = ((-2, 0) if rel == "=" else None, (-2, delta))
    else:
        # 2 REL x
        expected = ((2, -delta), (2, 0) if rel == "=" else None)
    assert (sx.lb[0], sx.ub[0]) == expected
    # the row's side is x and its edges, without the delta of a strict row
    _, sides = _solver_for(1, [(((0, sign),), 2, "<=" if rel == "<" else rel)])
    assert sides == [(0, *(None if e is None else e[0] for e in expected))]


def test_unit_rows_meet_on_their_variable_and_scaled_rows_keep_a_slack():
    # 1 < x, 1 <= x, x < 5, x <= 3, y = 2, and 2x <= 7, which is not a unit row
    rows = [
        (((0, -1),), 1, "<"), (((0, -1),), 1, "<="), (((0, 1),), -5, "<"),
        (((0, 1),), -3, "<="), (((1, 1),), -2, "="), (((0, 2),), -7, "<="),
    ]
    sx = solver_for(2, rows)
    assert [(sx.lb[v], sx.ub[v]) for v in range(2)] == [((1, 1), (3, 0)), ((2, 0), (2, 0))]
    assert sx.rows == {2: {0: 2}} and (sx.lb[2], sx.ub[2]) == (None, (7, 0))
    assert sx.check() and rational(sx.model())[1] == (2, 0)
    # the rows meet the unit rows branch-and-bound adds too, and bounds
    # that cross fail
    sx = solver_for(2, rows + [(((0, -1),), 2, "<="), (((0, 1),), -6, "<=")])
    assert (sx.lb[0], sx.ub[0]) == ((2, 0), (3, 0)) and sx.check()
    assert not solver_for(2, rows + [(((0, -1),), 4, "<=")]).check()
    assert not solver_for(2, rows + [(((1, -1),), 3, "<=")]).check()
    # each row names the variable or slack it bounds, and its own edges
    _, sides = _solver_for(2, [(c, k, "<=" if rel == "<" else rel) for c, k, rel in rows])
    assert sides == [(0, 1, None), (0, 1, None), (0, None, 5), (0, None, 3), (1, 2, 2),
                     (2, None, 7)]


def test_inexact_division_gives_a_model_over_a_denominator():
    # 2x = 1
    sx, _ = _solver_for(1, [(((0, 2),), -1, "=")])
    assert sx.check()
    assert sx.model() == ([(1, 0)], 2)


def test_int_feasible_matches_box_enumeration():
    rng = random.Random(5)
    box = 4
    sat = unsat = 0
    for _ in range(500):
        nvars = rng.randint(1, 3)
        rows = random_rows(rng, nvars, rng.randint(1, 4), rels=("=", "<="))
        for v in range(nvars):
            rows.append((((v, 1),), -box, "<="))
            rows.append((((v, -1),), -box, "<="))
        expected = any(
            all(holds(row, [(x, 0) for x in point]) for row in rows)
            for point in itertools.product(range(-box, box + 1), repeat=nvars)
        )
        assert int_feasible(nvars, rows, Budget(10_000)) == expected, rows
        sat += expected
        unsat += not expected
    assert sat > 50 and unsat > 50


def test_set_bounds_loosens_and_rechecks_from_the_last_assignment():
    sx = Simplex(2)
    s = sx.add_slack({0: 1, 1: 1})
    t = sx.add_slack({0: 1, 1: -1})
    sx.set_bounds(s, (3, 0), (3, 0))
    sx.set_bounds(t, None, (-5, 0))
    assert sx.check()
    # an empty interval on a basic or a nonbasic variable is infeasible
    sx.set_bounds(s, (4, 0), (3, 0))
    assert not sx.check()
    sx.set_bounds(s, (3, 0), (3, 0))
    sx.set_bounds(t, (-5, 1), (-5, 0))
    assert not sx.check()
    sx.set_bounds(t, (-5, 0), None)
    assert sx.check()
    (x, dx), (y, dy) = rational(sx.model())
    assert dx == dy == 0
    assert x + y == 3 and x - y >= -5


@pytest.mark.parametrize("rel", RELS)
def test_ground_rows(rel):
    for const in (-1, 0, 1):
        expected = {"=": const == 0, "<=": const <= 0, "<": const < 0}[rel]
        sx = solver_for(1, [((), const, rel)])
        assert (sx is not None and sx.check()) == expected


# (variables, rows, feasible, nodes spent); the counts were taken before the
# bounds of `_solver_for` went through `set_bounds`, and before a branch
# became a unit row
PINNED_NODES = [
    # 2x = 1
    (1, [(((0, 2),), -1, "=")], False, 3),
    # 3x + 5y = 1 in the unit box
    (2, [(((0, 3), (1, 5)), -1, "="), (((0, -1),), 0, "<="), (((1, -1),), 0, "<="),
         (((0, 1),), -1, "<="), (((1, 1),), -1, "<=")], False, 5),
    # 2x + 3y = 7 with x, y >= 0
    (2, [(((0, 2), (1, 3)), -7, "="), (((0, -1),), 0, "<="), (((1, -1),), 0, "<=")], True, 4),
    # -2x + 2y + 5 = 0, -3x - 2y <= 3 in the box [-6, 6]^2
    (2, [(((0, -2), (1, 2)), 5, "="), (((0, -3), (1, -2)), -3, "<="),
         (((0, 1),), -6, "<="), (((0, -1),), -6, "<="), (((1, 1),), -6, "<="),
         (((1, -1),), -6, "<=")], False, 25),
]


# For each system of PINNED_NODES, in the same order: the pivots its whole
# branch-and-bound makes, and the model of every node whose relaxation is
# feasible, in the order the nodes are visited.  The models were taken from
# the tableau that kept a column index beside its rows.  The pivot counts of
# the second and fourth systems fell from 4 and 18 when rows on one variable
# with coefficient +-1 became bounds on that variable instead of slack rows.
PINNED_PIVOTS = [
    (1, ["1/2"]),
    (2, ["1/3 0", "0 1/5"]),
    (5, ["7/2 0", "3 1/3", "2 1"]),
    (17, ["5/2 0", "2 -1/2", "3/2 -1", "1 -3/2", "1/2 -2", "3 1/2", "7/2 1",
          "4 3/2", "9/2 2", "5 5/2", "11/2 3", "6 7/2"]),
]


@pytest.mark.parametrize("nvars, rows, expected, nodes", PINNED_NODES)
def test_branch_and_bound_spends_the_pinned_nodes(nvars, rows, expected, nodes):
    budget = Budget(1_000)
    assert int_feasible(nvars, rows, budget) == expected
    assert 1_000 - budget.remaining == nodes


@pytest.mark.parametrize("system, pinned", zip(PINNED_NODES, PINNED_PIVOTS))
def test_branch_and_bound_takes_the_pinned_pivots_and_models(monkeypatch, system, pinned):
    nvars, rows, expected, _ = system
    pivots, models = 0, []
    pivot, check = Simplex._pivot_and_update, Simplex.check

    def counted_pivot(self, *args):
        nonlocal pivots
        pivots += 1
        return pivot(self, *args)

    def recorded_check(self):
        ok = check(self)
        if ok:
            models.append(" ".join(str(r) for r, _ in rational(self.model())))
        return ok

    monkeypatch.setattr(Simplex, "_pivot_and_update", counted_pivot)
    monkeypatch.setattr(Simplex, "check", recorded_check)
    assert int_feasible(nvars, rows, Budget(1_000)) == expected
    assert (pivots, models) == pinned


def test_unbounded_gap_exhausts_the_budget_after_the_pinned_nodes():
    # 2x - 2y = 1 has no integer point, and branching never closes the gap
    budget = Budget(50)
    with pytest.raises(Undecided):
        int_feasible(2, [(((0, 2), (1, -2)), -1, "=")], budget)
    assert budget.remaining == -1
