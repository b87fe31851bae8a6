"""Program model: clause lookup, dependency structure, coverage, recursion detection."""

import random

import pytest

from chcprecond.core import (
    FALSE_PRED,
    Atom,
    Clause,
    Pred,
    Program,
    check_initial_coverage,
    dependency_graph,
    reachable,
    recursive_preds,
    sccs,
)
from chcprecond.driver import StepRecord, run_pipeline
from chcprecond.linarith import TRUE_CONJ, ConstraintConj, Var, make_conj, make_constraint
from chcprecond.parser import parse_program
from chcprecond.pe import pe_run
from chcprecond.qa import qa_transform

from helpers import corpus_files, gen_multivar_texts, load


def test_atom_rejects_repeated_args():
    with pytest.raises(ValueError, match="repeated"):
        Atom(Pred("p", 2), (Var("A"), Var("A")))


def test_records_hash_compare_and_order_by_their_fields():
    A, B = Var("A"), Var("B")
    p1, p2, q1 = Pred("p", 1), Pred("p", 2), Pred("q", 1)
    assert p1 == Pred("p", 1) and hash(p1) == hash(Pred("p", 1)) == hash(("p", 1))
    assert sorted([q1, p2, p1]) == [p1, p2, q1]
    atoms = [Atom(q1, (A,)), Atom(p2, (B, A)), Atom(p1, (B,)), Atom(p1, (A,))]
    assert sorted(atoms) == [atoms[3], atoms[2], atoms[1], atoms[0]]
    assert atoms[3] == Atom(p1, (A,)) and hash(atoms[3]) == hash((p1, (A,)))
    assert repr(atoms[3]) == "Atom(pred=Pred(name='p', arity=1), args=(Var('A'),))"
    with pytest.raises(ValueError, match="with 2 args"):
        Atom(p1, (A, B))
    c = make_conj([make_constraint({A: 1}, -3, "<=")])
    c1, c2 = Clause("c1", atoms[3], c, ()), Clause("c2", None, TRUE_CONJ, (atoms[2],))
    assert sorted([c2, c1]) == [c1, c2]
    assert c1 == Clause("c1", Atom(p1, (A,)), make_conj([make_constraint({A: 1}, -3, "<=")]), ())
    assert hash(c1) == hash(("c1", atoms[3], c, ()))
    # a conjunction equals only a conjunction, and orders by its constraints
    assert c != c.constraints and ConstraintConj(c.constraints) == c
    assert sorted([c, TRUE_CONJ]) == [TRUE_CONJ, c]

    # a step's repr leaves its program out
    prog = load("fig1.chc")
    step = StepRecord("pe", 0.5, prog)
    assert repr(step) == "StepRecord(label='pe', seconds=0.5, feasible=None, trace=None)"

    # a program made by `with_clauses` builds its own clause indexes
    pred = prog.clauses[0].head_pred()
    assert prog.clauses[0] in prog.clauses_for(pred)
    assert prog.clause_by_id(prog.clauses[0].cid) is prog.clauses[0]
    rest = prog.with_clauses(prog.clauses[1:])
    assert rest.clauses_for(pred) == tuple(cl for cl in rest.clauses if cl.head_pred() == pred)
    assert prog.clauses[0] not in rest.clauses_for(pred)
    with pytest.raises(KeyError):
        rest.clause_by_id(prog.clauses[0].cid)
    assert rest.initial_preds == prog.initial_preds and rest.init_args == prog.init_args


def test_single_fact_graph():
    p = parse_program(":- initial(p/1).\nc1. p(A).\nc2. false :- p(A).\n")
    g = dependency_graph(p)
    assert g == {Pred("p", 1): {FALSE_PRED}, FALSE_PRED: set()}
    assert not recursive_preds(p)


def test_fig1_dependency_graph():
    p = load("fig1.chc")
    g = dependency_graph(p)
    init, if_, while_ = Pred("init", 2), Pred("if", 2), Pred("while", 2)
    assert if_ in g[init]
    assert while_ in g[if_]
    assert while_ in g[while_]
    assert FALSE_PRED in g[while_]
    assert recursive_preds(p) == frozenset({while_})


def test_mutual_recursion_detected():
    p = parse_program(
        ":- initial(i/1).\n"
        "c1. i(A).\n"
        "c2. p(A) :- i(A).\n"
        "c3. p(A) :- q(A).\n"
        "c4. q(A) :- p(A).\n"
        "c5. false :- q(A).\n"
    )
    assert recursive_preds(p) == frozenset({Pred("p", 1), Pred("q", 1)})


def _graph_program(n, edges):
    """Arity-0 predicates p0..p{n-1}, one clause `v :- u` per edge (u, v).

    Every predicate also gets a fact, so nodes without edges stay in the
    graph.
    """
    preds = [Pred(f"p{i}", 0) for i in range(n)]
    clauses = [Clause(f"f{i}", Atom(q, ()), TRUE_CONJ, ()) for i, q in enumerate(preds)]
    for j, (u, v) in enumerate(edges):
        clauses.append(Clause(f"e{j}", Atom(preds[v], ()), TRUE_CONJ, (Atom(preds[u], ()),)))
    return Program(tuple(clauses), frozenset(), ()), preds


def _closure(n, edges):
    """reach[u][v] iff a path of one or more edges leads from u to v."""
    reach = [[False] * n for _ in range(n)]
    for u, v in edges:
        reach[u][v] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    reach[i][j] = reach[i][j] or reach[k][j]
    return reach


@pytest.mark.parametrize("seed", range(40))
def test_graph_code_matches_transitive_closure(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
    p, preds = _graph_program(n, edges)
    reach = _closure(n, edges)
    want = frozenset(preds[i] for i in range(n) if reach[i][i])
    assert recursive_preds(p) == want
    g = dependency_graph(p)
    roots = rng.sample(range(n), rng.randint(0, n))
    got = reachable(g, [preds[r] for r in roots] + [Pred("absent", 0)])
    assert got == {preds[j] for j in range(n) if j in roots or any(reach[r][j] for r in roots)}


def _check_components(g):
    """`sccs(g)` partitions g's nodes, each edge points no earlier in it,
    and a component closes under paths both ways."""
    comps = sccs(g)
    rank = {v: r for r, comp in enumerate(comps) for v in comp}
    assert sorted(rank) == sorted(g) and sum(map(len, comps)) == len(g)
    for v in g:
        assert all(rank[v] <= rank[w] for w in g[v])
    for comp in comps:
        # every member reaches every other, within the component alone
        inside = {v: [w for w in g[v] if rank[w] == rank[v]] for v in comp}
        assert reachable(inside, comp[:1]) == set(comp)
    return rank


@pytest.mark.parametrize("seed", range(40))
def test_components_come_in_topological_order(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
    p, preds = _graph_program(n, edges)
    rank = _check_components(dependency_graph(p))
    reach = _closure(n, edges)
    for u in range(n):
        for v in range(n):
            same = u == v or (reach[u][v] and reach[v][u])
            assert (rank[preds[u]] == rank[preds[v]]) == same


def test_clause_bodies_come_no_later_than_heads():
    sources = [load(n) for n in corpus_files()]
    sources += [parse_program(t) for t in gen_multivar_texts()]
    for p in sources + [qa_transform(pe_run(q).program) for q in sources]:
        rank = _check_components(dependency_graph(p))
        for cl in p.clauses:
            assert all(rank[b.pred] <= rank[cl.head_pred()] for b in cl.body), cl


def test_component_order_follows_clause_order():
    # p1 and p2 both hang off p0 and feed nothing else, so either order is
    # topological; the clause order, not the hash seed, picks one: Tarjan
    # enters the first clause's head first, closes it first, and the
    # reversal puts it last
    for first, second in ((1, 2), (2, 1)):
        p, preds = _graph_program(3, [(0, first), (0, second)])
        assert sccs(dependency_graph(p)) == [[preds[0]], [preds[second]], [preds[first]]]


def test_graph_code_on_self_loop_and_absent_predicate():
    p, (a, b) = _graph_program(2, [(0, 0), (0, 1)])
    assert recursive_preds(p) == frozenset({a})
    g = dependency_graph(p)
    assert reachable(g, [b]) == {b}
    assert reachable(g, [Pred("absent", 0)]) == set()


def test_deep_chain_does_not_recurse():
    n = 5000
    chain = [(i, i + 1) for i in range(n - 1)]
    p, preds = _graph_program(n, chain)
    assert recursive_preds(p) == frozenset()
    assert reachable(dependency_graph(p), [preds[0]]) == set(preds)
    assert sccs(dependency_graph(p)) == [[q] for q in preds]
    ring, _ = _graph_program(n, chain + [(n - 1, 0)])
    assert recursive_preds(ring) == frozenset(preds)
    (comp,) = sccs(dependency_graph(ring))
    assert sorted(comp) == sorted(preds)


def test_coverage_holds_on_corpus():
    for name in ("fig1.chc", "cs_example.chc", "example_t4.chc"):
        assert check_initial_coverage(load(name))


def test_coverage_fails_when_goal_avoids_init():
    p = parse_program(
        ":- initial(init/1).\nc1. init(A).\nc2. false :- B >= 1.\n",
    )
    assert not check_initial_coverage(p)


def test_coverage_fails_via_non_initial_fact():
    p = parse_program(
        ":- initial(init/1).\n"
        "c1. init(A).\n"
        "c2. q(B) :- B >= 1.\n"
        "c3. false :- q(B).\n"
        "c4. false :- init(A).\n"
    )
    assert not check_initial_coverage(p)


def test_initial_clauses_and_versions():
    p = load("two_inits.chc")
    assert len(p.initial_clauses()) == 2
    assert all(cl.is_fact() for cl in p.initial_clauses())


@pytest.mark.parametrize("name", corpus_files())
def test_clause_indexes_match_a_linear_scan(name):
    # the input and every program the pipeline's steps produce
    for step in run_pipeline(load(name)).steps:
        p = step.program
        for pred in p.preds() + [FALSE_PRED, Pred("absent", 0)]:
            scan = tuple(cl for cl in p.clauses if cl.head_pred() == pred)
            assert p.clauses_for(pred) == scan
        assert p.goal_clauses() == tuple(cl for cl in p.clauses if cl.head is None)
        for cl in p.clauses:
            assert p.clause_by_id(cl.cid) is next(c for c in p.clauses if c.cid == cl.cid)
        with pytest.raises(KeyError):
            p.clause_by_id("absent")
