"""Randomised checks for the five kernel operations.

Each suite runs at least 300 seeded instances against an oracle computed
independently of the code under test: interval reasoning for projection,
direct point evaluation for negation, sampling for the polyhedra lattice,
the recursive skeleton enumerator for automata difference, and an explicit
tree mapping for the query-answer transformation.
"""

import random
import re
from fractions import Fraction

from chcprecond.core import Atom, Clause, Pred, Program
from chcprecond.derivation import TraceTree, feasible, instantiate, iter_and_trees, parse_trace
from chcprecond.linarith import (
    FALSE_CONJ,
    Var,
    conj_and,
    entails,
    equiv_conj,
    equiv_dnf,
    make_conj,
    make_constraint,
    make_dnf,
    negate_conj,
    project,
    satisfiable,
    subtract,
)
from chcprecond.parser import parse_program
from chcprecond.polyhedra import join, widen
from chcprecond.qa import GOAL_ID, qa_transform

from helpers import grid, holds_conj, holds_dnf, skeleton_language

INSTANCES = 300

X, Y, Z = Var("X"), Var("Y"), Var("Z")


def _rand_conj(rng, vars, n_constraints, coeff=3, const=6):
    ks = []
    for _ in range(n_constraints):
        coeffs = {v: rng.randint(-coeff, coeff) for v in vars}
        rel = rng.choice(("<=", "<=", ">=", "="))
        ks.append(make_constraint(coeffs, rng.randint(-const, const), rel))
    return make_conj(ks)


# -- projection ------------------------------------------------------------------


def _exists_z(c, pt):
    """Is there a rational z completing pt to a solution of c?"""
    lo, hi = None, None
    for k in c:
        a = 0
        b = Fraction(k.const)
        for v, coeff in k.coeffs:
            if v == Z:
                a = coeff
            else:
                b += coeff * pt[v]
        if a == 0:
            if k.rel == "=" and b != 0:
                return False
            if k.rel == "<=" and b > 0:
                return False
            continue
        bound = Fraction(-b, a)
        if k.rel == "=":
            lo = bound if lo is None else max(lo, bound)
            hi = bound if hi is None else min(hi, bound)
        elif a > 0:
            hi = bound if hi is None else min(hi, bound)
        else:
            lo = bound if lo is None else max(lo, bound)
    if lo is None or hi is None:
        return True
    return lo <= hi


def test_projection_is_the_exact_shadow():
    rng = random.Random(7041)
    for _ in range(INSTANCES):
        c = _rand_conj(rng, (X, Y, Z), rng.randint(2, 5))
        shadow = project(c, {X, Y})
        for pt in grid([X, Y], -4, 4):
            assert holds_conj(shadow, pt) == _exists_z(c, pt), (c, pt)


def test_projection_composes():
    rng = random.Random(7042)
    for _ in range(INSTANCES):
        c = _rand_conj(rng, (X, Y, Z), rng.randint(2, 4))
        two_steps = project(project(c, {X, Y}), {X})
        one_step = project(c, {X})
        assert equiv_conj(two_steps, one_step), c


# -- negation --------------------------------------------------------------------


def test_negation_partitions_every_point():
    rng = random.Random(9215)
    spans = {1: 15, 2: 7, 3: 3}
    for i in range(INSTANCES):
        k = 1 + i % 3
        vars = (X, Y, Z)[:k]
        c = _rand_conj(rng, vars, rng.randint(1, 4), coeff=2, const=8)
        d = negate_conj(c)
        span = spans[k]
        for pt in grid(list(vars), -span, span):
            inside = holds_conj(c, pt)
            outside = holds_dnf(d, pt)
            assert inside != outside, (c, pt)


def test_subtraction_equals_the_cross_product_with_each_complement():
    # the final precondition's formula before pieces that miss a theta stayed
    # whole: the swp conjoined with negate_conj(theta), disjunct by disjunct
    rng = random.Random(5530)
    differ = 0
    for _ in range(INSTANCES):
        d = make_dnf(_rand_conj(rng, (X, Y), rng.randint(1, 3)) for _ in range(rng.randint(1, 4)))
        thetas = [_rand_conj(rng, (X, Y), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        sharp, cross = d.disjuncts, d
        for theta in thetas:
            sharp = make_dnf(subtract(sharp, theta)).disjuncts
            cross = make_dnf(conj_and(a, b) for a in cross for b in negate_conj(theta))
        assert equiv_dnf(make_dnf(sharp), cross), (d, thetas)
        differ += make_dnf(sharp) != cross
    # 209 of the 300 texts differ when this test was written
    assert differ > 100


# -- polyhedra lattice -----------------------------------------------------------


def _rand_poly(rng):
    c = _rand_conj(rng, (X, Y), rng.randint(1, 3), coeff=2, const=5)
    return c if satisfiable(c) else FALSE_CONJ


def test_join_is_an_upper_bound():
    rng = random.Random(3317)
    for _ in range(INSTANCES):
        p, q = _rand_poly(rng), _rand_poly(rng)
        j = join(p, q)
        assert entails(p, j) and entails(q, j)
        if j.is_false():
            assert p.is_false() and q.is_false()
            continue
        for pt in grid([X, Y], -4, 4):
            if holds_conj(p, pt) or holds_conj(q, pt):
                assert holds_conj(j, pt), (p, q, pt)


def test_join_of_satisfiable_conjunctions_is_satisfiable():
    # join skips the satisfiability check, because the hull of two
    # satisfiable systems is satisfiable
    rng = random.Random(3319)
    for _ in range(INSTANCES):
        p, q = _rand_poly(rng), _rand_poly(rng)
        j = join(p, q)
        assert j.is_false() == (p.is_false() and q.is_false()), (p, q)
        if not j.is_false():
            assert satisfiable(j), (p, q)


def test_widen_keeps_a_subset_of_the_old_constraints():
    rng = random.Random(3318)
    for _ in range(INSTANCES):
        p, q = _rand_poly(rng), _rand_poly(rng)
        w = widen(p, q)
        assert entails(p, w) and entails(q, w)
        if not p.is_false() and not q.is_false():
            assert set(w.constraints) <= set(p.constraints)
        if not p.is_false():
            assert widen(p, p) == p


# -- automata difference ---------------------------------------------------------


def _rand_skeleton_program(rng):
    preds = [Pred(f"s{i}", 0) for i in range(3)]
    clauses = []
    cid = 0

    def body():
        return tuple(
            Atom(rng.choice(preds), ()) for _ in range(rng.randint(0, 2))
        )

    for pr in preds:
        for _ in range(rng.randint(1, 2)):
            cid += 1
            clauses.append(Clause(f"r{cid}", Atom(pr, ()), make_conj([]), body()))
    for _ in range(rng.randint(1, 2)):
        cid += 1
        clauses.append(
            Clause(
                f"r{cid}",
                None,
                make_conj([]),
                tuple(Atom(rng.choice(preds), ()) for _ in range(rng.randint(1, 2))),
            )
        )
    return Program(tuple(clauses), frozenset(), ())


def test_difference_removes_exactly_the_chosen_tree():
    from chcprecond.te import difference, fta_to_program, program_to_fta, trace_to_fta

    rng = random.Random(5150)
    done = 0
    attempts = 0
    while done < INSTANCES:
        attempts += 1
        assert attempts < 40 * INSTANCES
        p = _rand_skeleton_program(rng)
        lang = skeleton_language(p, 7)
        if not lang:
            continue
        t_str = rng.choice(sorted(lang))
        t = parse_trace(t_str)
        newp = fta_to_program(difference(program_to_fta(p), trace_to_fta(t)), p)
        after = {re.sub(r"__\d+", "", s) for s in skeleton_language(newp, 7)}
        assert after == lang - {t_str}, (lang, t_str)
        done += 1


# -- query-answer transformation ---------------------------------------------------


def _rand_source_program(rng):
    lines = [":- initial(init/1)."]
    cid = 0

    def emit(text):
        nonlocal cid
        cid += 1
        lines.append(f"c{cid}. {text}")

    lo = rng.randint(-5, 3)
    init_constr = rng.choice(
        ["", f" :- A >= {lo}", f" :- A =< {lo + rng.randint(0, 6)}",
         f" :- A >= {lo}, A =< {lo + rng.randint(0, 6)}"]
    )
    emit(f"init(A){init_constr}.")
    guard = rng.choice(["", f"A >= {rng.randint(-4, 4)}, ", f"A =< {rng.randint(-4, 4)}, "])
    emit(f"q(A) :- {guard}init(A).")
    if rng.random() < 0.3:
        emit(f"q(A) :- A >= {rng.randint(-3, 3)}, init(A).")
    if rng.random() < 0.7:
        d = rng.choice([1, 2])
        if rng.random() < 0.5:
            emit(f"q(A) :- A - B = {d}, q(B).")
        else:
            emit(f"q(A) :- B - A = {d}, q(B).")
    goal = rng.choice(
        [f"A = {rng.randint(-4, 6)}", f"A >= {rng.randint(0, 6)}", f"A =< {rng.randint(-4, 2)}"]
    )
    emit(f"false :- {goal}, q(A).")
    return parse_program("\n".join(lines) + "\n")


def _qa_trace(src: TraceTree) -> TraceTree:
    """The answer derivation induced by a source derivation of false."""

    def ans(t: TraceTree, qt: TraceTree) -> TraceTree:
        kids = [qt]
        qkids = [qt]
        for i, child in enumerate(t.children, start=1):
            q = TraceTree(f"{t.cid}_q{i}", tuple(qkids))
            a = ans(child, q)
            kids.append(a)
            qkids.append(a)
        return TraceTree(f"{t.cid}_a", tuple(kids))

    return ans(src, TraceTree(GOAL_ID, ()))


def _erase(t: TraceTree) -> TraceTree:
    src = t.cid.rsplit("_", 1)[0]
    return TraceTree(src, tuple(_erase(c) for c in t.children[1:]))


def _size(t: TraceTree) -> int:
    return 1 + sum(_size(c) for c in t.children)


def test_query_answer_preserves_bounded_derivability():
    # forward: every feasible source derivation maps to a feasible answer
    # derivation; backward: every feasible answer derivation in a size
    # window erases to a feasible source one.  The window is clamped to the
    # smallest mapped size so the existence check stays constructive while
    # the enumeration stays bounded.
    rng = random.Random(1089)
    false_a = Pred("false#a", 0)
    for _ in range(INSTANCES):
        p = _rand_source_program(rng)
        qa = qa_transform(p)
        mapped_sizes = []
        for tree, _ in iter_and_trees(p, 5):
            qt = _qa_trace(tree.trace())
            at = instantiate(qa, qt)
            assert feasible(at), (p, str(tree.trace()))
            mapped_sizes.append(_size(qt))
        bound = min(min(mapped_sizes, default=11), 12)
        found = False
        for tree, _ in iter_and_trees(qa, bound, root=false_a):
            found = True
            back = _erase(tree.trace())
            assert feasible(instantiate(p, back)), (p, str(tree.trace()))
        if mapped_sizes and min(mapped_sizes) <= bound:
            assert found
