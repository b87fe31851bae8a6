"""Tree automata over clause skeletons, and elimination of one trace.

Forgetting constraints, a derivation of `false` is a tree labelled with
clause identifiers.  The skeletons a program admits form a regular tree
language: a bottom-up automaton whose states are the predicates accepts
exactly the well-typed trees.  Removing a single unwanted skeleton is then
automaton difference, and the product automaton reads back as a program
whose predicates are copies of the originals.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Hashable, NamedTuple, Optional

from .core import FALSE_PRED, Atom, Clause, Pred, Program, onto_init_args
from .derivation import TraceTree, constr_of, initial_nodes, instantiate, iter_nodes
from .linarith import TRUE_CONJ, ConstraintConj, satisfiable

State = Hashable


class Transition(NamedTuple):
    """One rule cid(q1,...,qk) -> q, written bottom-up."""

    cid: str
    children: tuple[State, ...]
    target: State


class FTA(NamedTuple):
    states: frozenset
    final: frozenset
    transitions: frozenset


def program_to_fta(p: Program) -> FTA:
    """Automaton of derivation skeletons; predicates are the states."""
    states = set(p.preds())
    states.add(FALSE_PRED)
    transitions = set()
    for cl in p.clauses:
        transitions.add(
            Transition(cl.cid, tuple(a.pred for a in cl.body), cl.head_pred())
        )
    return FTA(frozenset(states), frozenset({FALSE_PRED}), frozenset(transitions))


def trace_to_fta(t: TraceTree) -> FTA:
    """Automaton accepting exactly the one tree, states numbered preorder."""
    nodes = list(iter_nodes(t))
    transitions = []
    # reversed preorder meets every child before its parent; `done` holds the
    # states of the subtrees read so far, the first child's on top
    done: list[int] = []
    for me in reversed(range(len(nodes))):
        kids = tuple(done.pop() for _ in nodes[me].children)
        transitions.append(Transition(nodes[me].cid, kids, me))
        done.append(me)
    return FTA(
        frozenset(range(len(transitions))), frozenset({0}), frozenset(transitions)
    )


def _image(b_trans: list[Transition], combo: tuple[frozenset, ...]) -> frozenset:
    """Subset-construction step: all b-targets reachable from the child sets."""
    out = set()
    for tr in b_trans:
        if len(tr.children) == len(combo) and all(
            c in d for c, d in zip(tr.children, combo)
        ):
            out.add(tr.target)
    return frozenset(out)


def difference(a: FTA, b: FTA) -> FTA:
    """Automaton for L(a) minus L(b).

    Product of `a` with the complement of `b` determinized on the fly; a
    product state pairs an a-state with the set of b-states that can read
    the same subtree.  Only bottom-up reachable pairs are built, and states
    that reach no final state are pruned afterwards, so the result stays
    small for the single-trace subtrahends used here.
    """
    b_by_cid: dict[str, list[Transition]] = {}
    for tr in sorted(b.transitions, key=lambda t: (t.cid, str(t.target))):
        b_by_cid.setdefault(tr.cid, []).append(tr)

    # a transition is read again only when one of its child states gains a
    # b-set, not in whole passes until nothing changes, which took a pass
    # per link of a chain; the fixpoint is the same in any order
    users: dict[State, list[Transition]] = {}
    for tr in a.transitions:
        for c in set(tr.children):
            users.setdefault(c, []).append(tr)
    found: dict[State, set[frozenset]] = {}
    prod_trans: set[Transition] = set()
    work = deque(a.transitions)
    queued = set(work)
    while work:
        tr = work.popleft()
        queued.discard(tr)
        options = [found.get(c, set()) for c in tr.children]
        if any(not o for o in options):
            continue
        for combo in itertools.product(*[sorted(o, key=_set_key) for o in options]):
            dset = _image(b_by_cid.get(tr.cid, []), combo)
            prod_trans.add(Transition(tr.cid, tuple(zip(tr.children, combo)), (tr.target, dset)))
            if dset not in found.setdefault(tr.target, set()):
                found[tr.target].add(dset)
                for user in users.get(tr.target, ()):
                    if user not in queued:
                        work.append(user)
                        queued.add(user)

    final = {
        (q, d)
        for q, dsets in found.items()
        if q in a.final
        for d in dsets
        if not (d & b.final)
    }

    by_target: dict[State, list[Transition]] = {}
    for tr in prod_trans:
        by_target.setdefault(tr.target, []).append(tr)
    useful: set[State] = set(final)
    stack = list(final)
    while stack:
        for tr in by_target.get(stack.pop(), ()):
            for c in tr.children:
                if c not in useful:
                    useful.add(c)
                    stack.append(c)
    kept = {tr for tr in prod_trans if tr.target in useful}
    return FTA(frozenset(useful), frozenset(final), frozenset(kept))


def _set_key(d: frozenset) -> tuple:
    return (len(d), tuple(sorted(str(s) for s in d)))


def fta_to_program(f: FTA, p: Program) -> Program:
    """Read a program back off a difference automaton built from `p`.

    Each product state is a copy of one of p's predicates.  A predicate
    with a single live copy keeps its name; otherwise the copies become
    name__1, name__2, ... in a deterministic order.  Clause identifiers
    follow the same rule.
    """
    order = {cl.cid: i for i, cl in enumerate(p.clauses)}
    for tr in f.transitions:
        if tr.cid not in order:
            raise ValueError("automaton not derived from program")

    by_pred: dict[Pred, list[frozenset]] = {}
    for st in f.states:
        q, d = st
        if q != FALSE_PRED:
            by_pred.setdefault(q, []).append(d)
    names: dict[State, Pred] = {}
    for q, dsets in by_pred.items():
        dsets.sort(key=_set_key)
        if len(dsets) == 1:
            names[(q, dsets[0])] = q
        else:
            for k, d in enumerate(dsets, start=1):
                names[(q, d)] = Pred(f"{q.name}__{k}", q.arity)

    def tr_key(tr: Transition) -> tuple:
        return (
            order[tr.cid],
            _set_key(tr.target[1]),
            tuple(_set_key(c[1]) for c in tr.children),
        )

    ordered = sorted(f.transitions, key=tr_key)
    uses: dict[str, int] = {}
    for tr in ordered:
        uses[tr.cid] = uses.get(tr.cid, 0) + 1
    seen: dict[str, int] = {}
    clauses = []
    for tr in ordered:
        src = p.clause_by_id(tr.cid)
        if len(tr.children) != len(src.body):
            raise ValueError("automaton not derived from program")
        if tr.target[0] != src.head_pred():
            raise ValueError("automaton not derived from program")
        body = []
        for child, atom in zip(tr.children, src.body):
            if child[0] != atom.pred:
                raise ValueError("automaton not derived from program")
            body.append(Atom(names[child], atom.args))
        head = None if src.head is None else Atom(names[tr.target], src.head.args)
        if uses[tr.cid] == 1:
            cid = tr.cid
        else:
            seen[tr.cid] = seen.get(tr.cid, 0) + 1
            cid = f"{tr.cid}__{seen[tr.cid]}"
        clauses.append(Clause(cid, head, src.constr, tuple(body)))

    inits = {names[st] for st in names if st[0] in p.initial_preds}
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
    newp = fta_to_program(difference(program_to_fta(p), trace_to_fta(t)), p)
    theta: Optional[ConstraintConj] = None
    c = constr_of(at)
    if satisfiable(c):
        nodes = initial_nodes(p, at)
        theta = onto_init_args(p, c, nodes[0].atom.args) if nodes else TRUE_CONJ
    return newp, theta
