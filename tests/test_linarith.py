"""Constraint layer: satisfiability, entailment, projection, DNF algebra."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from chcprecond.cli import _dnf_json
from chcprecond.linarith import (
    DNF,
    RUN,
    ConstraintConj,
    DNF_FALSE,
    DNF_TRUE,
    FALSE_CONJ,
    TRUE_CONJ,
    Run,
    Var,
    _drop_redundant,
    _holds_at,
    _sweep,
    _same_row_bound,
    conj_and,
    conj_vars,
    entails,
    equiv_dnf,
    implies_dnf,
    int_satisfiable,
    make_conj,
    make_constraint,
    make_dnf,
    negate_conj,
    negate_dnf,
    project,
    rename_conj,
    rename_constraint,
    satisfiable,
    simplify,
)
from chcprecond.precond import classify
from chcprecond import linarith, simplex
from chcprecond.simplex import Budget, Simplex, Undecided, dmax, dmin

import fraction_simplex
from helpers import dnf_of_conj, equiv_conj, grid, holds_conj, holds_dnf

x, y = Var("x"), Var("y")
A, B = Var("A"), Var("B")


def k(coeffs, const, rel="<="):
    return make_constraint(coeffs, const, rel)


def test_contradictory_bounds_unsat():
    assert not satisfiable(make_conj([k({x: -1}, 1), k({x: 1}, 0)]))


def test_equality_recovered_from_opposed_bounds():
    c = make_conj([k({x: 1}, -3), k({x: -1}, 3)])
    assert equiv_conj(c, make_conj([k({x: 1}, -3, "=")]))


def test_entails_basic():
    assert entails(make_conj([k({x: 1}, -1, "=")]), make_conj([k({x: -1}, 0)]))
    assert not entails(make_conj([k({x: -1}, 0)]), make_conj([k({x: -1}, 1)]))


def test_project_drops_bound_variable():
    c = make_conj([k({x: 1, y: -1}, 0), k({y: 1}, -5)])
    assert equiv_conj(project(c, {x}), make_conj([k({x: 1}, -5)]))


def test_project_onto_nothing_is_true():
    assert project(make_conj([k({x: -1}, 1)]), set()).is_true()


def test_negate_true_and_false():
    assert negate_conj(TRUE_CONJ) == DNF_FALSE
    assert negate_dnf(DNF_FALSE) == DNF_TRUE


def test_negate_mixed_conjunction():
    c = make_conj([k({A: 1}, -99), k({A: 2, B: 1}, -200, "=")])
    expected = [
        make_conj([k({A: -1}, 100)]),
        make_conj([k({A: 2, B: 1}, -199)]),
        make_conj([k({A: -2, B: -1}, 201)]),
    ]
    got = negate_conj(c)
    assert len(got) == 3
    for d in expected:
        assert any(equiv_conj(d, g) for g in got)


def test_negate_point():
    c = make_conj([k({A: 1}, -100, "="), k({B: 1}, 0, "=")])
    assert len(negate_conj(c)) == 4


def test_negation_is_exact_on_a_grid():
    """Each integer point satisfies the conjunction or its negation, never both."""
    rng = random.Random(7)
    vars = (x, y)
    for _ in range(60):
        c = make_conj(
            k(
                {v: rng.randint(-3, 3) for v in vars},
                rng.randint(-6, 6),
                rng.choice(("<=", ">=", "=")),
            )
            for _ in range(rng.randint(1, 3))
        )
        neg = negate_conj(c)
        for gx in range(-4, 5):
            for gy in range(-4, 5):
                pt = {x: gx, y: gy}
                assert holds_conj(c, pt) != holds_dnf(neg, pt)


def test_simplify_tightens_integer_bounds():
    assert simplify(make_conj([k({x: 2}, -5)])) == make_conj([k({x: 1}, -2)])


def test_simplify_drops_weaker_bound():
    assert simplify(make_conj([k({x: 1}, -3), k({x: 1}, -5)])) == make_conj(
        [k({x: 1}, -3)]
    )


def test_simplify_merges_opposed_bounds():
    assert simplify(make_conj([k({x: 1}, -3), k({x: -1}, 3)])) == make_conj(
        [k({x: 1}, -3, "=")]
    )


def test_simplify_rejects_unsat():
    with pytest.raises(ValueError):
        simplify(make_conj([k({x: 1}, 0), k({x: -1}, 1)]))


def test_int_satisfiable_gap():
    assert satisfiable(make_conj([k({x: 2}, -1, "=")]))
    assert not int_satisfiable(make_conj([k({x: 2}, -1, "=")]))


def test_int_satisfiable_matches_enumeration_in_a_box():
    # every variable is boxed to [-3, 3], so enumerating the box decides
    # integer satisfiability; equalities with a unit coefficient make the
    # preprocessing substitute a variable away before branch-and-bound
    z = Var("z")
    box = [k({v: s}, -3) for v in (x, y, z) for s in (1, -1)]
    points = list(grid([x, y, z], -3, 3))
    rng = random.Random(4242)
    substituted = 0
    for _ in range(1500):
        ks = list(box)
        for _ in range(rng.randint(1, 3)):
            coeffs = {v: rng.randint(-3, 3) for v in (x, y, z)}
            if rng.random() < 0.5:
                coeffs[rng.choice((x, y, z))] = rng.choice((1, -1))
                rel = "="
            else:
                rel = rng.choice(("<=", ">=", "="))
            ks.append(k(coeffs, rng.randint(-6, 6), rel))
        c = make_conj(ks)
        if satisfiable(c) and any(
            j.rel == "=" and any(abs(cf) == 1 for _, cf in j.coeffs) for j in c
        ):
            substituted += 1
        want = any(holds_conj(c, pt) for pt in points)
        assert int_satisfiable(c) == want, c
    assert substituted > 500


def test_implies_dnf_absorption():
    a = dnf_of_conj(make_conj([k({x: -1}, 0)]))
    b = negate_dnf(DNF_FALSE)
    assert implies_dnf(a, b)
    assert equiv_dnf(a, a)


def test_equiv_dnf_absorbs_covered_disjunct():
    a = dnf_of_conj(make_conj([k({x: -1}, 0)]))
    ab = make_dnf(a.disjuncts + (make_conj([k({x: -1}, 5)]),))
    assert equiv_dnf(a, ab)
    assert not equiv_dnf(dnf_of_conj(make_conj([k({x: -1}, 1)])), a)


def test_budget_exhaustion_is_reported():
    c = make_conj(
        [
            k({x: 3, y: 5}, -1, "="),
            k({x: -1}, 0),
            k({y: -1}, 0),
            k({x: 1}, -1),
            k({y: 1}, -1),
        ]
    )
    assert satisfiable(c)
    with pytest.raises(Undecided):
        int_satisfiable(c, Budget(0))
    assert not int_satisfiable(c)


def test_make_dnf_absorbs_deduplicates_and_sorts():
    small = make_conj([k({x: 1}, 0)])
    big = make_conj([k({x: 1}, 0), k({y: 1}, 0)])
    other = make_conj([k({y: -1}, 3)])
    unsat = make_conj([k({x: 1}, 0), k({x: -1}, 1)])
    d = make_dnf([big, other, small, unsat, other, small])
    # the proper superset is absorbed, repeats collapse, unsat goes
    assert d == DNF(tuple(sorted([small, other])))
    assert list(d.disjuncts) == sorted(d.disjuncts)
    assert make_dnf([big, small]) == DNF((small,))
    assert make_dnf([unsat]).is_false()


def test_equal_constraints_hash_equal():
    a = make_conj([k({x: 2, y: -4}, 6), k({y: 1}, 0, "=")])
    b = make_conj([k({y: 1}, 0, "="), k({x: 1, y: -2}, 3)])
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash((a.constraints,))
    for c in a:
        assert hash(c) == hash((c.coeffs, c.const, c.rel))
    assert len({a, b, make_conj(list(b))}) == 1


# -- redundancy sweep ----------------------------------------------------------


def drop_redundant_pairwise(c, ask=entails):
    """The redundancy sweep as one fresh entailment query per constraint."""
    if c.is_false() or len(c) <= 1:
        return c
    kept = list(c.constraints)
    for j in sorted(c.constraints):
        rest = [i for i in kept if i != j]
        if ask(ConstraintConj(tuple(rest)), ConstraintConj((j,))):
            kept = rest
    return make_conj(kept)


def test_drop_redundant_keeps_an_equality_beside_bounds_on_its_variable():
    C = Var("C")
    c = make_conj([k({B: 2, C: -2}, 1, "="), k({C: 1}, 0), k({C: 2}, 3)])
    assert _drop_redundant(c) == drop_redundant_pairwise(c)
    assert str(_drop_redundant(c)) == "2*B - 2*C = -1, 2*C =< -3"


def test_drop_redundant_matches_pairwise_entailment():
    rng = random.Random(31)
    z = Var("z")
    # a small pool of rows, so several constraints often share one
    pool = [{x: 1}, {y: 1}, {x: -1}, {x: 1, y: 1}, {x: 1, y: -1}, {x: 2, z: 1},
            {y: -2, z: 3}, {z: 1}, {x: 1, y: 1, z: -1}]
    shrunk = 0
    for _ in range(1200):
        ks = [
            k(rng.choice(pool), rng.randint(-4, 4), "=" if rng.random() < 0.2 else "<=")
            for _ in range(rng.randint(2, 6))
        ]
        c = make_conj(ks)
        got = _drop_redundant(c)
        assert got == drop_redundant_pairwise(c), c
        shrunk += len(got) < len(c)
    assert shrunk > 200


# -- entailment certificates ---------------------------------------------------


def entails_by_simplex(c, d):
    """Entailment by the `Fraction` reference tableau: a strict row per side of each k in d."""
    if c.is_false():
        return True
    index = {}
    for j in (*c, *d):
        for v, _ in j.coeffs:
            index.setdefault(v, len(index))

    def combo(j):
        return tuple(sorted((index[v], cf) for v, cf in j.coeffs))

    rows = [(combo(j), j.const, j.rel) for j in c]
    for j in d:
        # j fails where its strict negation holds, on either side for an equality
        sides = [(tuple((i, -cf) for i, cf in combo(j)), -j.const, "<")]
        if j.rel == "=":
            sides.append((combo(j), j.const, "<"))
        if any(fraction_simplex.feasible(len(index), rows + [side]) for side in sides):
            return False
    return True


def test_certificates_agree_with_the_simplex():
    z = Var("z")
    # a small pool of rows over three variables, so conjunctions often share
    # a row, lack a sign, or contradict each other across rows
    pool = [{x: 1}, {x: -1}, {y: 1}, {y: -1}, {x: 1, y: 1}, {x: 1, y: -1},
            {x: -1, y: -1}, {z: 1}, {y: 1, z: -2}, {x: 2, z: 1}]
    decided = Counter()
    for run in (None, Run()):
        # the same draws outside a run and inside one, whose memo answers
        # the draws that repeat and whose witness points answer some
        rng = random.Random(47)
        satisfiable.cache_clear()

        def draw(n):
            return make_conj(
                k(rng.choice(pool), rng.randint(-2, 2), "=" if rng.random() < 0.2 else "<=")
                for _ in range(n)
            )

        token = RUN.set(run)
        try:
            for _ in range(1500):
                c, d = draw(rng.randint(1, 6)), draw(rng.randint(1, 2))
                if run is not None and not c.is_false():
                    # within a run a satisfiable c keeps its tableau's model
                    point = run.models.get(c) if satisfiable(c) else None
                    for j in d:
                        if _same_row_bound(c, j):
                            decided["same row"] += 1
                        elif point is not None and not _holds_at(j, point):
                            decided["witness point"] += 1
                        else:
                            decided["simplex"] += 1
                assert entails(c, d) == entails_by_simplex(c, d), (c, d)
                assert _drop_redundant(c) == drop_redundant_pairwise(c, entails_by_simplex), c
        finally:
            RUN.reset(token)
            satisfiable.cache_clear()
    assert min(decided.values()) >= 20 and len(decided) == 3, decided


# -- witness points --------------------------------------------------------------


def chain_answers(run, seed=59):
    """`satisfiable`, `entails` and `_drop_redundant` along seeded `conj_and` chains.

    Each chain starts from a drawn conjunction and adds drawn operands one at
    a time.  `conj_and` makes a child before anything is asked of its new
    operand, so the child can inherit only the point of the chain so far,
    and it often loses it.  The draws include equalities and unsatisfiable
    conjunctions.
    `satisfiable`'s cache is cleared first, so every answer is computed here.
    Returns the answers and how many children took an operand's point.
    """
    z = Var("z")
    pool = [{x: 1}, {x: -1}, {y: 1}, {y: -1}, {x: 1, y: 1}, {x: 1, y: -1},
            {x: -1, y: -1}, {z: 1}, {y: 1, z: -2}, {x: 2, z: 1}, {x: 3, y: -2, z: 1}]
    rng = random.Random(seed)

    def draw(n):
        return make_conj(
            k(rng.choice(pool), rng.randint(-3, 3), "=" if rng.random() < 0.2 else "<=")
            for _ in range(n)
        )

    answers, inherited = [], 0
    satisfiable.cache_clear()
    token = RUN.set(run)
    try:
        for _ in range(1500):
            acc = draw(rng.randint(1, 3))
            for _ in range(rng.randint(1, 4)):
                operand = draw(rng.randint(1, 3))
                child = conj_and(acc, operand)
                d = draw(rng.randint(1, 2))
                answers.append((satisfiable(acc), satisfiable(operand), satisfiable(child),
                                entails(child, d), entails(acc, d), _drop_redundant(child)))
                if run is not None and child not in (acc, operand):
                    point = run.models.get(child)
                    inherited += point is not None and any(
                        point is run.models.get(p) for p in (acc, operand)
                    )
                acc = child
    finally:
        RUN.reset(token)
        satisfiable.cache_clear()
    return answers, inherited


def test_witness_points_leave_every_answer_unchanged():
    run = Run()
    outside, _ = chain_answers(None)
    inside, inherited = chain_answers(run)
    assert inside == outside
    # operands and children take both answers, and children do take their
    # operands' points
    for i in (1, 2):
        sat = Counter(a[i] for a in outside)
        assert sat[True] > 500 and sat[False] > 100, (i, sat)
    assert inherited > 200 and len(run.models) > 1000, (inherited, len(run.models))


def test_every_witness_point_lies_in_its_conjunction():
    run = Run()
    chain_answers(run, seed=61)
    # an unsatisfiable conjunction the run answered has no point
    points = {c: point for c, point in run.models.items() if point is not None}
    assert all(satisfiable(c) == (c in points) for c in run.models)
    assert len(points) > 1000
    fractional = 0
    for c, (nums, den) in points.items():
        # integer numerators over one positive denominator
        assert type(den) is int and den > 0
        assert all(type(n) is int for n in nums.values())
        full = {v: Fraction(nums.get(v, 0), den) for v in conj_vars(c)}
        assert holds_conj(c, full), (c, nums, den)
        fractional += any(n % den for n in nums.values())
    # some points are not integral, and those are exact too
    assert fractional > 0
    # 132 of the 4,453 points are written down for one constraint, with no
    # tableau, and some of those are not integral either
    single = [(c, point) for c, point in points.items() if len(c) == 1]
    assert len(single) == 132
    assert any(n % den for _, (nums, den) in single for n in nums.values())


def test_rename_conj_equals_renaming_each_constraint():
    rng = random.Random(67)
    z, w = Var("z"), Var("w")
    names = [x, y, z, w, A, B]
    pool = [{x: 1}, {x: -1}, {y: 2, z: -1}, {x: 1, y: 1}, {x: -1, y: 3}, {z: 1, w: -1},
            {x: 2, y: -1, w: 1}, {w: -1}]
    kinds = Counter()
    for _ in range(1000):
        c = make_conj(
            k(rng.choice(pool), rng.randint(-3, 3), rng.choice(("<=", "<=", ">=", "=")))
            for _ in range(rng.randint(0, 5))
        )
        # images drawn from c's own variables collide often
        mapping = {v: rng.choice(names[:4]) for v in rng.sample(names, rng.randint(0, 5))}
        image = {mapping.get(v, v) for v in conj_vars(c)}
        kinds["injective" if len(image) == len(conj_vars(c)) else "not injective"] += 1
        expected = make_conj(rename_constraint(j, mapping) for j in c)
        assert rename_conj(c, mapping) == expected, (c, mapping)
    assert kinds["injective"] > 500 and kinds["not injective"] > 200, kinds


def test_project_known_sat_matches_the_checked_projection():
    rng = random.Random(71)
    z = Var("z")
    pool = [{x: 1}, {x: -1}, {y: 1}, {x: 1, y: -1}, {x: 2, z: 1}, {y: -2, z: 3},
            {x: 1, y: 1, z: -1}, {z: -1}]
    compared = 0
    for _ in range(600):
        c = make_conj(
            k(rng.choice(pool), rng.randint(-4, 4), "=" if rng.random() < 0.2 else "<=")
            for _ in range(rng.randint(1, 6))
        )
        if not satisfiable(c):
            continue
        keep = set(rng.sample([x, y, z], rng.randint(0, 2)))
        assert project(c, keep, known_sat=True) == project(c, keep), (c, keep)
        compared += 1
    assert compared > 300


# -- unit rows as variable bounds ----------------------------------------------


def slack_per_row_solver(nvars, rows):
    """A tableau with a slack for every distinct row, unit rows included, and each row's side."""
    sx = Simplex(nvars)
    merged, sides = {}, []
    for combo, const, rel in rows:
        if not combo:
            if not (const == 0 if rel == "=" else const <= 0):
                return None
            sides.append(None)
            continue
        if combo not in merged:
            merged[combo] = sx.add_slack(dict(combo))
        s = merged[combo]
        edge = (-const, 0)
        lo = dmax(sx.lb[s], edge) if rel == "=" else sx.lb[s]
        sx.set_bounds(s, lo, dmin(sx.ub[s], edge))
        sides.append((s, -const if rel == "=" else None, -const))
    return sx, sides


def test_unit_bounds_answer_as_a_slack_per_row_tableau(monkeypatch):
    # canonical conjunctions over three variables, from unit, scaled and
    # multi-variable rows under all five relations; strict ones become
    # non-strict at construction and strict again in entailment's negations
    rng = random.Random(71)
    z = Var("z")
    pool = [{x: 1}, {x: -1}, {y: 1}, {y: -1}, {z: 1}, {z: -1}, {x: 2}, {y: -3},
            {x: 1, y: 1}, {x: -1, z: 2}, {y: 2, z: -1}, {x: 1, y: -1, z: 1}]
    conjs = [
        make_conj(
            k(rng.choice(pool), rng.randint(-4, 4), rng.choice(("<=", "<", ">=", ">", "=")))
            for _ in range(rng.randint(1, 6))
        )
        for _ in range(5000)
    ]

    def answers():
        satisfiable.cache_clear()
        out = []
        for c, d in zip(conjs, conjs[1:] + conjs[:1]):
            try:
                integer = int_satisfiable(c, Budget(2_000))
            except Undecided:
                integer = None
            out.append((satisfiable(c), _drop_redundant(c), entails(c, d), integer))
        return out

    got = answers()
    monkeypatch.setattr(simplex, "_solver_for", slack_per_row_solver)
    monkeypatch.setattr(linarith, "_solver_for", slack_per_row_solver)
    monkeypatch.setattr(
        linarith, "_sweep", lambda c: drop_redundant_pairwise(c, entails_by_simplex)
    )
    want = answers()
    satisfiable.cache_clear()
    assert got == want
    # every answer is exercised both ways
    seen = Counter()
    for (sat, kept, ent, integer), c in zip(got, conjs):
        seen["sat", sat] += 1
        seen["swept", len(kept) < len(c)] += 1
        seen["entails", ent] += 1
        seen["integer", integer] += 1
    for key in ("sat", "swept", "entails", "integer"):
        assert seen[key, True] > 100 and seen[key, False] > 100, seen


# -- the kernel against the Fraction tableau ------------------------------------


def test_the_kernel_agrees_with_the_fraction_tableau():
    # `satisfiable`, `entails` and the redundancy sweep ask their questions
    # as bound queries of one integer tableau; `fraction_simplex` answers
    # them from strict rows, one fresh tableau each
    rng = random.Random(89)
    z = Var("z")
    pool = [{x: 1}, {x: -1}, {y: 1}, {y: -1}, {z: 1}, {x: 2}, {y: -3}, {x: 1, y: 1},
            {x: 1, y: -1}, {x: -1, z: 2}, {y: 2, z: -1}, {x: 1, y: 1, z: 1}]

    def draw(n):
        return make_conj(
            k(rng.choice(pool), rng.randint(-3, 3), "=" if rng.random() < 0.2 else "<=")
            for _ in range(n)
        )

    def reference(c, j):
        return entails_by_simplex(c, ConstraintConj((j,)))

    seen = Counter()
    satisfiable.cache_clear()
    for _ in range(500):
        c = draw(rng.randint(1, 5))
        if c.is_false():
            continue
        sat = satisfiable(c)
        assert sat == (not reference(c, linarith.FALSE_K)), c
        assert entails(c, FALSE_CONJ) == (not sat), c
        # k on a row or variable c already bounds, on either sign of it and
        # near its edge there, or a row of the pool
        if rng.random() < 0.6:
            i = rng.choice(c.constraints)
            row, const = dict(i.coeffs), i.const + rng.choice((-1, 0, 0, 1))
            if rng.random() < 0.5:
                row, const = {v: -cf for v, cf in row.items()}, -const
        else:
            row, const = rng.choice(pool), rng.randint(-4, 4)
        j = k(row, const, "=" if rng.random() < 0.3 else "<=")
        if not j.coeffs:
            continue
        ent = entails(c, ConstraintConj((j,)))
        assert ent == reference(c, j), (c, j)
        seen["entails", j.rel, ent] += 1
        kept = _drop_redundant(c)
        for i in kept:
            # no kept constraint is entailed by the other kept ones
            others = ConstraintConj(tuple(o for o in kept if o != i))
            assert not reference(others, i), (c, kept, i)
        for i in set(c) - set(kept):
            # a dropped constraint is entailed by the kept ones
            assert reference(kept, i), (c, kept, i)
        seen["sat", sat] += 1
        seen["swept", len(kept) < len(c)] += 1
    satisfiable.cache_clear()
    for key in [("sat", True), ("sat", False), ("swept", True), ("swept", False)] + [
        ("entails", rel, ans) for rel in ("=", "<=") for ans in (True, False)
    ]:
        assert seen[key] > 10, seen


# -- canonical conjunctions ----------------------------------------------------


def _row(k):
    """k's coefficient row, sign-normalised so the first coefficient is positive."""
    if k.coeffs[0][1] > 0:
        return k.coeffs
    return tuple((v, -c) for v, c in k.coeffs)


def test_make_conj_keeps_one_interval_per_row():
    rng = random.Random(53)
    z = Var("z")
    # rows and their mirrors, and a scaled copy that stays a row of its own
    pool = [{x: 1}, {x: -1}, {x: 2}, {x: 1, y: 1}, {x: -1, y: -1}, {x: 1, y: -2},
            {x: -1, y: 2}, {y: 3, z: -1}, {y: -3, z: 1}]
    merged = false_seen = 0
    for _ in range(1000):
        ks = [
            k(rng.choice(pool), rng.randint(-4, 4), rng.choice(("<=", "<=", ">=", "=")))
            for _ in range(rng.randint(1, 7))
        ]
        raw = ConstraintConj(tuple(ks))
        got = make_conj(ks)
        # false exactly when the constraints on one row contradict each other
        by_row = {}
        for j in ks:
            by_row.setdefault(_row(j), []).append(j)
        row_false = any(not satisfiable(ConstraintConj(tuple(g))) for g in by_row.values())
        assert (got == FALSE_CONJ) == row_false, ks
        if got == FALSE_CONJ:
            assert not satisfiable(raw)
            false_seen += 1
        else:
            assert equiv_conj(got, raw), ks
            # per row one equality, or at most one bound on each side
            rels = {}
            for j in got:
                rels.setdefault(_row(j), []).append(j.rel)
            for rs in rels.values():
                assert rs in (["="], ["<="], ["<=", "<="]), got
            # no two constraints share a signed row
            assert len({j.coeffs for j in got}) == len(got), got
            merged += len(got) < len(set(ks))
        assert make_conj(got) == got
        shuffled = list(ks)
        rng.shuffle(shuffled)
        assert make_conj(shuffled) == got
    assert merged > 200 and false_seen > 100


def _intervals(c):
    """Each sign-normalised row of a canonical c -> its `[lo, hi]`, None for an open side."""
    out = {}
    for j in c:
        row = _row(j)
        bounds = out.setdefault(row, [None, None])
        if j.coeffs != row:
            # -row + const <= 0 is row >= const
            bounds[0] = j.const
        else:
            bounds[1] = -j.const
            if j.rel == "=":
                bounds[0] = -j.const
    return out


def test_conj_and_equals_make_conj_of_both_operands():
    # operands straight from make_conj, and `_sweep` and `rename_conj`
    # results, which are built without it; and partners that bound an
    # operand's own rows more tightly on both sides, or meet its one-sided
    # bounds in an equality
    rng = random.Random(61)
    z = Var("z")
    pool = [{x: 1}, {x: -1}, {x: 2}, {x: 1, y: 1}, {x: -1, y: -1}, {x: 1, y: -2},
            {x: -1, y: 2}, {y: 3, z: -1}, {y: -3, z: 1}]

    def operand():
        ks = [
            k(rng.choice(pool), rng.randint(-4, 4), rng.choice(("<=", "<=", ">=", "=")))
            for _ in range(rng.randint(0, 5))
        ]
        c = make_conj(ks)
        form = rng.randrange(3)
        if form == 1 and len(c) > 1 and satisfiable(c):
            c, seen["sweep"] = _sweep(c), seen["sweep"] + 1
        elif form == 2:
            c, seen["rename"] = rename_conj(c, {x: y, y: x}), seen["rename"] + 1
        return c

    def partner(a):
        ks = [k(rng.choice(pool), rng.randint(-4, 4)) for _ in range(rng.randint(0, 2))]
        for row, (lo, hi) in (_intervals(a) if a != FALSE_CONJ else {}).items():
            if lo is not None and hi is not None and hi - lo >= 2:
                # lo + 1 <= row <= hi - 1
                ks += [k(dict(row), -(hi - 1)), k(dict(row), -(lo + 1), ">=")]
            elif hi is not None and lo is None:
                # row >= hi, which meets row <= hi
                ks.append(k(dict(row), -hi, ">="))
            elif lo is not None and hi is None:
                ks.append(k(dict(row), -lo))
        return make_conj(ks)

    def check(a, b):
        got = conj_and(a, b)
        assert got == make_conj(a.constraints + b.constraints), (a, b)
        assert conj_and(b, a) == got
        if FALSE_CONJ in (a, b):
            return
        rows_a = {_row(j): j for j in a}
        shared = [(rows_a[_row(j)], j) for j in b if _row(j) in rows_a]
        seen["equality against negated row"] += any(
            (i.rel == "=") != (j.rel == "=") and i.coeffs != j.coeffs for i, j in shared
        )
        if got == FALSE_CONJ:
            seen["crossing"] += 1
            return
        seen["an operand"] += got in (a, b)
        bounds_a, bounds_b = _intervals(a), _intervals(b)
        for row, (lo, hi) in _intervals(got).items():
            ends = [bounds_a.get(row), bounds_b.get(row)]
            if None in ends:
                continue
            # a shared row whose interval is neither operand's
            seen["tightens"] += [lo, hi] not in ends
            # one operand's interval strictly inside the other's
            seen["tightens both sides"] += any(
                None not in (*i, *j) and j[0] < i[0] and i[1] < j[1] for i, j in (ends, ends[::-1])
            )
            # bounds that meet in an equality neither operand holds
            seen["bounds meet"] += lo == hi and all(i[0] != i[1] for i in ends)

    seen = Counter()
    for _ in range(3000):
        a, b = operand(), operand()
        check(a, b)
        check(a, partner(a))
    assert min(seen.values()) > 50 and len(seen) == 8, seen


def test_implies_dnf_walks_thousands_of_disjuncts_without_recursion():
    b = make_dnf(make_conj([k({A: 1}, -i, "=")]) for i in range(1200))
    wide = dnf_of_conj(make_conj([k({A: -1}, 0), k({A: 1}, -5000)]))
    covered = dnf_of_conj(make_conj([k({A: -1}, 0), k({A: 1}, -1199)]))
    assert not implies_dnf(wide, b)
    assert implies_dnf(covered, b)
    assert classify(b, wide) == "non-trivial"
    assert classify(b, covered) == "more-general"


# -- value types -----------------------------------------------------------------


def test_constraint_order_is_field_order_by_name():
    rng = random.Random(7)
    vs = [Var(n) for n in ("A", "B", "T1", "T10", "T2", "$a0", "x")]
    for _ in range(1000):
        ks = [
            k({v: rng.randint(-3, 3) for v in rng.sample(vs, rng.randint(1, 3))},
              rng.randint(-5, 5), rng.choice(("<=", "=", ">=")))
            for _ in range(rng.randint(2, 8))
        ]
        by_fields = sorted(
            ks, key=lambda j: (tuple((v.name, c) for v, c in j.coeffs), j.const, j.rel)
        )
        assert sorted(ks) == by_fields


def test_var_orders_prints_and_names_as_its_name():
    names = ["b", "A", "T10", "T2", "$a1", "a"]
    assert [v.name for v in sorted(Var(n) for n in names)] == sorted(names)
    v = Var("A")
    assert (str(v), repr(v), v.name) == ("A", "Var('A')", "A")
    assert type(v.name) is str and type(str(v)) is str
    # a Var is its name's str, so a mixed set would merge the two
    assert v == "A" and hash(v) == hash("A")


def test_json_coefficient_keys_are_plain_str():
    d = dnf_of_conj(make_conj([k({A: 1, B: -2}, 3), k({x: 1}, 0, "=")]))
    keys = [key for conj in _dnf_json(d) for j in conj for key in j["coeffs"]]
    assert sorted(keys) == ["A", "B", "x"]
    assert all(type(key) is str for key in keys)
