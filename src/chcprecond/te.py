"""Elimination of one trace from a program's derivation language.

Forgetting constraints, a derivation of `false` is a tree labelled with
clause identifiers.  Removing one such tree `t` splits each predicate into
copies, built as a product over the program's clauses: a copy of q is q
paired with the set of nodes of `t`, numbered in preorder, that the trees
derived through the copy can stand for.  A clause whose body atoms have
copies derives the head copy whose set holds each node the clause labels
with every child in the matching body copy's set.  A goal copy whose set
lacks node 0, the root, derives every goal tree but `t`, and the copies
that reach such a goal copy make up the new program.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from typing import Optional

from .core import FALSE_PRED, Atom, Clause, Pred, Program, onto_init_args
from .derivation import TraceTree, constr_of, initial_nodes, instantiate, iter_nodes
from .linarith import TRUE_CONJ, ConstraintConj, satisfiable

Copy = tuple[Pred, frozenset]


def _set_key(d: frozenset) -> tuple:
    # node numbers compare as strings ("10" before "2"): the order that
    # numbers the copies, so the printed program depends on it
    return (len(d), tuple(sorted(str(n) for n in d)))


def _without(p: Program, t: TraceTree) -> Program:
    """`p` without the goal skeleton `t`, which `instantiate` has checked against `p`."""
    # the nodes each clause labels, with their children's numbers; reversed
    # preorder meets every child before its parent, and `done` holds the
    # subtrees read so far, the first child's on top
    nodes = list(iter_nodes(t))
    labels: dict[str, list[tuple[int, tuple[int, ...]]]] = {}
    done: list[int] = []
    for me in reversed(range(len(nodes))):
        kids = tuple(done.pop() for _ in nodes[me].children)
        labels.setdefault(nodes[me].cid, []).append((me, kids))
        done.append(me)

    # the reachable copies; a clause is read again only when one of its body
    # predicates gains a copy, and the fixpoint is the same in any order
    users: dict[Pred, list[int]] = {}
    for i, cl in enumerate(p.clauses):
        for a in cl.body:
            users.setdefault(a.pred, []).append(i)
    copies: dict[Pred, set[frozenset]] = {}
    made: dict[tuple[int, tuple[frozenset, ...]], frozenset] = {}
    work = deque(range(len(p.clauses)))
    queued = set(work)
    while work:
        i = work.popleft()
        queued.discard(i)
        cl = p.clauses[i]
        q = cl.head_pred()
        here = labels.get(cl.cid, ())
        for combo in itertools.product(*(copies.get(a.pred, ()) for a in cl.body)):
            if (i, combo) in made:
                continue
            d = made[i, combo] = frozenset(
                me for me, kids in here if all(k in s for k, s in zip(kids, combo))
            )
            if d not in copies.setdefault(q, set()):
                copies[q].add(d)
                for j in users.get(q, ()):
                    if j not in queued:
                        work.append(j)
                        queued.add(j)

    # the copies that reach a goal copy without the root
    by_head: dict[Copy, list[tuple[int, tuple[frozenset, ...]]]] = {}
    for (i, combo), d in made.items():
        by_head.setdefault((p.clauses[i].head_pred(), d), []).append((i, combo))
    live: set[Copy] = {(FALSE_PRED, d) for d in copies.get(FALSE_PRED, ()) if 0 not in d}
    stack = list(live)
    while stack:
        for i, combo in by_head.get(stack.pop(), ()):
            for a, s in zip(p.clauses[i].body, combo):
                if (a.pred, s) not in live:
                    live.add((a.pred, s))
                    stack.append((a.pred, s))

    # a predicate with a single live copy keeps its name, otherwise the copies
    # become name__1, name__2, ...; clause ids follow the same rule
    by_pred: dict[Pred, list[frozenset]] = {}
    for q, d in live:
        if q != FALSE_PRED:
            by_pred.setdefault(q, []).append(d)
    names: dict[Copy, Pred] = {}
    for q, ds in by_pred.items():
        ds.sort(key=_set_key)
        for k, d in enumerate(ds, start=1):
            names[q, d] = q if len(ds) == 1 else Pred(f"{q.name}__{k}", q.arity)

    kept = sorted(
        ((i, d, combo) for (i, combo), d in made.items() if (p.clauses[i].head_pred(), d) in live),
        key=lambda e: (e[0], _set_key(e[1]), tuple(map(_set_key, e[2]))),
    )
    uses = Counter(i for i, _, _ in kept)
    seen: Counter[int] = Counter()
    clauses = []
    for i, d, combo in kept:
        cl = p.clauses[i]
        body = tuple(Atom(names[a.pred, s], a.args) for a, s in zip(cl.body, combo))
        head = None if cl.head is None else Atom(names[cl.head.pred, d], cl.head.args)
        cid = cl.cid
        if uses[i] > 1:
            seen[i] += 1
            cid = f"{cid}__{seen[i]}"
        clauses.append(Clause(cid, head, cl.constr, body))
    inits = {names[c] for c in names if c[0] in p.initial_preds}
    return p.with_clauses(clauses, initial_preds=inits)


def eliminate_trace(
    p: Program, t: TraceTree
) -> tuple[Program, Optional[ConstraintConj]]:
    """Remove one goal skeleton from the program's language.

    Returns the specialised program together with the constraint the trace
    puts on the initial state, projected onto the declared initial
    arguments, or None when the trace is infeasible.  A feasible trace that
    never visits an initial fact constrains nothing, so the projection is
    `true`: the goal is reachable from every initial state.  Raises
    ValueError when `t` is not a goal skeleton of `p`.
    """
    try:
        at = instantiate(p, t)
    except ValueError:
        raise ValueError("trace not in program language") from None
    if at.atom is not None:
        raise ValueError("trace not in program language")
    theta: Optional[ConstraintConj] = None
    c = constr_of(at)
    if satisfiable(c):
        nodes = initial_nodes(p, at)
        theta = onto_init_args(p, c, nodes[0].atom.args) if nodes else TRUE_CONJ
    return _without(p, t), theta
