"""AND-trees: trace parsing, instantiation, enumeration, counterexamples."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import chcprecond

from chcprecond.derivation import (
    constr_of,
    find_counterexample,
    initial_nodes,
    instantiate,
    iter_and_trees,
    iter_nodes,
    parse_trace,
)
from chcprecond.driver import PipelineConfig, run_pipeline
from chcprecond.linarith import Var, format_conj, project
from chcprecond.parser import parse_program
from chcprecond.te import eliminate_trace

from helpers import (
    conj_from,
    corpus_files,
    equiv_conj,
    feasible,
    gen_multivar_texts,
    load,
    skeleton_language,
)


def test_parse_trace_round_trip():
    for text in ("c1", "c1(c2)", "c1(c10,c2(c8,c5))"):
        assert str(parse_trace(text)) == text


def test_parse_trace_reports_position():
    with pytest.raises(ValueError):
        parse_trace("c1(c2")
    with pytest.raises(ValueError):
        parse_trace("")


def test_single_fact_tree_is_feasible():
    p = load("fig1.chc")
    t = instantiate(p, parse_trace("c1"))
    assert t.size() == 1
    assert feasible(t)


def test_goal_tree_instantiation_and_feasibility():
    p = load("fig1.chc")
    t = instantiate(p, parse_trace("c6(c4(c2(c1)))"))
    assert t.size() == 4
    assert t.atom is None
    assert feasible(t)
    # the only solution fixes the goal state and the initial state
    (init,) = initial_nodes(p, t)
    a0, b0 = init.atom.args
    theta = project(constr_of(t), (a0, b0))
    want = conj_from([({a0: 1}, -100, "="), ({b0: 1}, 0, "=")])
    assert equiv_conj(theta, want)


def test_infeasible_tree_detected():
    p = load("fig1.chc")
    # the branch for large values forces A >= 1, against the goal's A =< 0
    t = instantiate(p, parse_trace("c6(c4(c3(c1)))"))
    assert not feasible(t)


def test_unknown_clause_id():
    p = load("fig1.chc")
    with pytest.raises(ValueError, match="unknown clause id"):
        instantiate(p, parse_trace("c9"))


def test_child_count_mismatch():
    p = load("fig1.chc")
    with pytest.raises(ValueError, match="arity mismatch"):
        instantiate(p, parse_trace("c6"))


def test_head_mismatch():
    p = load("fig1.chc")
    with pytest.raises(ValueError, match="head mismatch"):
        instantiate(p, parse_trace("c6(c2(c1))"))


def test_enumeration_matches_direct_recursion():
    """The enumerator agrees with an independent skeleton recursion."""
    for name in ("fig1.chc", "cs_example.chc", "example_t4.chc"):
        p = load(name)
        got = {str(t.trace()) for t, _ in iter_and_trees(p, 9, prune=False)}
        assert got == skeleton_language(p, 9), name


def test_enumeration_order_smallest_first():
    p = load("fig1.chc")
    sizes = [t.size() for t, _ in iter_and_trees(p, 7, prune=False)]
    assert sizes == sorted(sizes)


def test_find_counterexample_fig1_smallest_feasible():
    p = load("fig1.chc")
    tree, feas = find_counterexample(p)
    assert feas
    assert str(tree.trace()) == "c6(c4(c2(c1)))"


def test_find_counterexample_prefers_feasible_over_smaller_infeasible():
    p = load("example_t4_cs0.chc")
    tree, feas = find_counterexample(p)
    assert feas
    assert str(tree.trace()) == "c1(c10,c3)"
    assert tree.size() == 3


def test_find_counterexample_infeasible_fallback():
    p = parse_program(
        ":- initial(i/1).\n"
        "c1. i(A) :- A >= 5.\n"
        "c2. false :- A =< 0, i(A).\n"
    )
    tree, feas = find_counterexample(p)
    assert not feas
    assert str(tree.trace()) == "c2(c1)"


def test_find_counterexample_none_when_no_goal_tree():
    p = parse_program(
        ":- initial(i/1).\n"
        "c1. i(A).\n"
        "c2. q(A) :- q(A).\n"
        "c3. false :- i(A), q(A).\n"
    )
    assert find_counterexample(p, max_nodes=8) is None


def test_initial_nodes_order_is_leftmost_outermost():
    p = load("example_t4.chc")
    tree, _ = find_counterexample(p)
    nodes = initial_nodes(p, tree)
    assert nodes
    assert nodes[0].clause_id == "c7"


def test_instantiate_names_do_not_depend_on_hash_seed():
    # B..G occur only in constraints; they are numbered in sorted order
    # after the atom arguments
    code = (
        "from chcprecond import parse_program, parse_trace\n"
        "from chcprecond.derivation import constr_of, instantiate\n"
        "from chcprecond.linarith import format_conj\n"
        "p = parse_program(':- initial(p/1).\\n'\n"
        "    'c1. p(A) :- A = B + 2*C - 3*D, B >= 1, C >= 2, D =< 4.\\n'\n"
        "    'c2. false :- A = E + F, E >= G, G >= 5, p(A).\\n')\n"
        "print(format_conj(constr_of(instantiate(p, parse_trace('c2(c1)')))))\n"
    )
    src = str(Path(chcprecond.__file__).resolve().parents[1])
    outs = [
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in ("0", "1")
    ]
    want = (
        "T1 - T2 - T3 = 0, T1 - T5 - 2*T6 + 3*T7 = 0, T2 - T4 >= 0, T4 >= 5,"
        " T5 >= 1, T6 >= 2, T7 =< 4\n"
    )
    assert outs == [want, want]


def test_trace_deeper_than_the_recursion_limit():
    # c1 is p0's fact, c<i+1> unfolds p<i> into p<i-1>, and the goal clause
    # closes the chain; every walk over the 3,001-node trace uses a stack
    n = 3000
    lines = [":- initial(p0/1).", "p0(A) :- A >= 0."]
    lines += [f"p{i}(A) :- p{i - 1}(A)." for i in range(1, n)]
    lines.append(f"false :- A >= 5, p{n - 1}(A).")
    p = parse_program("\n".join(lines) + "\n")
    text = "".join(f"c{i}(" for i in range(n + 1, 1, -1)) + "c1" + ")" * n
    tt = parse_trace(text)
    assert str(tt) == text and tt.size() == n + 1
    t = instantiate(p, tt)
    assert t.size() == n + 1 and str(t) == text
    assert [node.clause_id for node in iter_nodes(t)] == [f"c{i}" for i in range(n + 1, 0, -1)]
    # head and body share A, so the whole chain runs over T1 alone
    assert format_conj(constr_of(t)) == "T1 >= 5"
    assert feasible(t)
    (init,) = initial_nodes(p, t)
    assert init.clause_id == "c1" and init.atom.args == (Var("T1"),)
    # the trace is the program's only goal skeleton, so eliminating it
    # leaves no clause, and it puts A >= 5 on the initial state
    newp, theta = eliminate_trace(p, tt)
    assert newp.clauses == () and format_conj(theta) == "A >= 5"


# every te step's (trace, feasible) of a default run of each corpus program;
# (None, None) is a round with no tree for the goal within the node bound
CORPUS_TE_STEPS = {
    "already_safe.chc": [(None, None)],
    "branch_split.chc": [("c1(c2(c4))", True)],
    "chain_skip.chc": [("c1(c3)", True)],
    "counter_loop.chc": [("c1(c2(c4))", True)],
    "cs_example.chc": [("c1(c3)", True)],
    "example_t4.chc": [("c1(c2,c5)", True), ("c3(c9)", True)],
    "example_t4_cs0.chc": [("c3(c10)", True)],
    "fig1.chc": [("c1(c2(c4(c8)))", True)],
    "no_safe_states.chc": [("c1(c2)", True)],
    "two_inits.chc": [("c1(c2)", True)],
}

# the same for each program of `gen_multivar_texts()`, at one iteration
GEN_MULTIVAR_TE_STEPS = [
    [("c1(c2(c4))", True)],
    [("c1(c2(c5(c3(c6))))", True)],
    [(None, None)],
    [("c1(c2(c3))", True)],
    [("c1(c2(c4))", True)],
    [("c1(c2(c4))", True)],
    [("c1(c2(c4))", True)],
    [("c1(c2(c5))", True)],
    [("c1(c2(c5))", True)],
    [("c1(c2(c4))", True)],
    [("c1(c2(c4))", True)],
    [("c1(c2(c5))", True)],
    [(None, None)],
    [("c1(c2(c5))", True)],
    [("c1(c2(c5))", True)],
    [("c1(c2(c5))", True)],
]


@pytest.mark.parametrize("name", sorted(CORPUS_TE_STEPS))
def test_counterexamples_of_a_default_run(name):
    r = run_pipeline(load(name))
    assert [(s.trace, s.feasible) for s in r.steps if s.label == "te"] == CORPUS_TE_STEPS[name]


def test_te_steps_cover_the_corpus():
    assert sorted(CORPUS_TE_STEPS) == corpus_files()


@pytest.mark.parametrize("i", range(len(GEN_MULTIVAR_TE_STEPS)))
def test_counterexamples_of_gen_multivar_at_one_iteration(i):
    texts = gen_multivar_texts()
    assert len(texts) == len(GEN_MULTIVAR_TE_STEPS)
    r = run_pipeline(parse_program(texts[i]), PipelineConfig(iterations=1))
    assert [(s.trace, s.feasible) for s in r.steps if s.label == "te"] == GEN_MULTIVAR_TE_STEPS[i]


# the trees iter_and_trees yields up to 9 nodes, in order: find_counterexample
# returns the first one.  Pruning drops only fig1's c6(c4(c3(c1))), whose
# constraint is rationally unsatisfiable, and none of example_t4_cs0's
TREE_ORDER = {
    ("fig1.chc", True): [
        "c6(c4(c2(c1)))",
        "c6(c5(c4(c2(c1))))",
        "c6(c5(c4(c3(c1))))",
        "c6(c5(c5(c4(c2(c1)))))",
        "c6(c5(c5(c4(c3(c1)))))",
        "c6(c5(c5(c5(c4(c2(c1))))))",
        "c6(c5(c5(c5(c4(c3(c1))))))",
        "c6(c5(c5(c5(c5(c4(c2(c1)))))))",
        "c6(c5(c5(c5(c5(c4(c3(c1)))))))",
        "c6(c5(c5(c5(c5(c5(c4(c2(c1))))))))",
        "c6(c5(c5(c5(c5(c5(c4(c3(c1))))))))",
    ],
    ("fig1.chc", False): [
        "c6(c4(c2(c1)))",
        "c6(c4(c3(c1)))",
        "c6(c5(c4(c2(c1))))",
        "c6(c5(c4(c3(c1))))",
        "c6(c5(c5(c4(c2(c1)))))",
        "c6(c5(c5(c4(c3(c1)))))",
        "c6(c5(c5(c5(c4(c2(c1))))))",
        "c6(c5(c5(c5(c4(c3(c1))))))",
        "c6(c5(c5(c5(c5(c4(c2(c1)))))))",
        "c6(c5(c5(c5(c5(c4(c3(c1)))))))",
        "c6(c5(c5(c5(c5(c5(c4(c2(c1))))))))",
        "c6(c5(c5(c5(c5(c5(c4(c3(c1))))))))",
    ],
    ("example_t4_cs0.chc", True): [
        "c1(c10,c3)",
        "c1(c10,c4)",
        "c1(c10,c2(c8,c6))",
        "c1(c10,c2(c8,c7))",
        "c1(c10,c2(c9,c6))",
        "c1(c10,c2(c9,c7))",
        "c1(c10,c2(c8,c5(c8,c6)))",
        "c1(c10,c2(c8,c5(c8,c7)))",
        "c1(c10,c2(c8,c5(c9,c6)))",
        "c1(c10,c2(c8,c5(c9,c7)))",
        "c1(c10,c2(c9,c5(c8,c6)))",
        "c1(c10,c2(c9,c5(c8,c7)))",
        "c1(c10,c2(c9,c5(c9,c6)))",
        "c1(c10,c2(c9,c5(c9,c7)))",
        "c1(c10,c2(c8,c5(c8,c5(c8,c6))))",
        "c1(c10,c2(c8,c5(c8,c5(c8,c7))))",
        "c1(c10,c2(c8,c5(c8,c5(c9,c6))))",
        "c1(c10,c2(c8,c5(c8,c5(c9,c7))))",
        "c1(c10,c2(c8,c5(c9,c5(c8,c6))))",
        "c1(c10,c2(c8,c5(c9,c5(c8,c7))))",
        "c1(c10,c2(c8,c5(c9,c5(c9,c6))))",
        "c1(c10,c2(c8,c5(c9,c5(c9,c7))))",
        "c1(c10,c2(c9,c5(c8,c5(c8,c6))))",
        "c1(c10,c2(c9,c5(c8,c5(c8,c7))))",
        "c1(c10,c2(c9,c5(c8,c5(c9,c6))))",
        "c1(c10,c2(c9,c5(c8,c5(c9,c7))))",
        "c1(c10,c2(c9,c5(c9,c5(c8,c6))))",
        "c1(c10,c2(c9,c5(c9,c5(c8,c7))))",
        "c1(c10,c2(c9,c5(c9,c5(c9,c6))))",
        "c1(c10,c2(c9,c5(c9,c5(c9,c7))))",
    ],
}
TREE_ORDER["example_t4_cs0.chc", False] = TREE_ORDER["example_t4_cs0.chc", True]


@pytest.mark.parametrize("name, prune", sorted(TREE_ORDER))
def test_enumeration_order_is_pinned(name, prune):
    got = [str(t) for t, _ in iter_and_trees(load(name), 9, prune=prune)]
    assert got == TREE_ORDER[name, prune]
