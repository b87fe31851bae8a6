"""AND-trees, trace trees, and bounded counterexample search.

An AND-tree is a derivation: each node carries a clause id, the atom it
derives (None at the goal root), and the clause constraint with variables
renamed apart.  A trace tree is the same thing stripped to clause ids, and
prints in term notation like `c1(c10,c2(c8,c6))`.

The counterexample search enumerates trace trees for false in increasing
node count with a fixed order (clause file order at every choice point,
leftmost atom first, smaller left subtrees first), pruning any partial tree
whose accumulated constraint is rationally unsatisfiable.  That pruning
never loses a feasible tree because satisfiability of the accumulation is
monotone along a feasible derivation.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterator, NamedTuple, Optional

from .core import Atom, Pred, Program, rename_clause
from .linarith import (
    ConstraintConj,
    Var,
    conj_and,
    make_conj,
    satisfiable,
)


class TraceTree(NamedTuple):
    cid: str
    children: tuple["TraceTree", ...] = ()

    def size(self) -> int:
        return sum(1 for _ in iter_nodes(self))

    def __str__(self) -> str:
        return _fold(self, lambda t, kids: f"{t.cid}({','.join(kids)})" if kids else t.cid)


def parse_trace(text: str) -> TraceTree:
    """Parse term notation, e.g. `c1(c10,c2(c8,c6))`, on an explicit stack."""
    tokens = [(m.start(), m.group(), m.lastindex == 1) for m in re.finditer(r"(\w+)|\S", text)]
    tokens.append((len(text), "", False))
    # the nodes whose `(` is open: clause id and the children read so far;
    # the first entry collects the whole tree
    open_: list[tuple[str, list[TraceTree]]] = [("", [])]
    i = 0
    while True:
        pos, cid, is_id = tokens[i]
        if not is_id:
            raise ValueError(f"trace syntax error at position {pos}")
        if tokens[i + 1][1] == "(":
            open_.append((cid, []))
            i += 2
            continue
        open_[-1][1].append(TraceTree(cid))
        i += 1
        while tokens[i][1] == ")" and len(open_) > 1:
            cid, kids = open_.pop()
            open_[-1][1].append(TraceTree(cid, tuple(kids)))
            i += 1
        pos, tok, _ = tokens[i]
        if len(open_) == 1:
            if tok:
                raise ValueError(f"trailing input at position {pos}")
            return open_[0][1][0]
        if tok != ",":
            raise ValueError(f"expected ')' at position {pos}")
        i += 1


class AndTree(NamedTuple):
    clause_id: str
    atom: Optional[Atom]
    constr: ConstraintConj
    children: tuple["AndTree", ...] = ()

    def size(self) -> int:
        return sum(1 for _ in iter_nodes(self))

    def trace(self) -> TraceTree:
        return _fold(self, lambda t, kids: TraceTree(t.clause_id, tuple(kids)))

    def __str__(self) -> str:
        return str(self.trace())


def constr_of(t: AndTree) -> ConstraintConj:
    # `make_conj` is canonical, so one call over all nodes equals the fold
    return make_conj(k for node in iter_nodes(t) for k in node.constr)


def iter_nodes(t):
    """Preorder walk of an AND-tree or trace tree, on an explicit stack."""
    stack = [t]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def _fold(t, make):
    """Bottom up, `make(node, its children's results)`, on an explicit stack.

    Reversed preorder meets every child before its parent.
    """
    done = []
    for node in reversed(list(iter_nodes(t))):
        done.append(make(node, [done.pop() for _ in node.children]))
    return done[0]


def instantiate(p: Program, tt: TraceTree) -> AndTree:
    """Build the AND-tree for a trace, renaming clauses apart in preorder."""
    counter = itertools.count(1)

    def fresh() -> Var:
        return Var(f"T{next(counter)}")

    # the atoms the nodes still to visit derive, in preorder; only the root
    # finds it empty and draws fresh names for its head
    atoms: list[Optional[Atom]] = []
    parts = []
    for node in iter_nodes(tt):
        try:
            cl = p.clause_by_id(node.cid)
        except KeyError:
            raise ValueError(f"unknown clause id {node.cid!r}") from None
        if atoms:
            atom = atoms.pop()
        else:
            atom = None if cl.head is None else Atom(cl.head.pred, tuple(fresh() for _ in cl.head.args))
        if len(node.children) != len(cl.body):
            raise ValueError(f"arity mismatch at clause {node.cid}")
        expected = atom.args if atom is not None else None
        if (cl.head is None) != (atom is None) or (
            atom is not None and cl.head.pred != atom.pred
        ):
            raise ValueError(f"head mismatch at clause {node.cid}")
        constr, body = rename_clause(cl, expected, fresh)
        parts.append((atom, constr))
        atoms.extend(reversed(body))
    rest = reversed(parts)
    return _fold(tt, lambda node, kids: AndTree(node.cid, *next(rest), tuple(kids)))


def initial_nodes(p: Program, t: AndTree) -> list[AndTree]:
    """Initial nodes in preorder, so index 0 is leftmost-outermost."""
    out = []
    for node in iter_nodes(t):
        if node.atom is not None and p.is_initial(node.atom.pred):
            cl = p.clause_by_id(node.clause_id)
            if cl.is_fact():
                out.append(node)
    return out


# -- enumeration ----------------------------------------------------------------


def _shift_or(comb: int, mask: int, cap: int) -> int:
    """Sumset of two size sets represented as bitmasks, capped."""
    out = 0
    i = 0
    while comb:
        if comb & 1:
            out |= mask << i
        comb >>= 1
        i += 1
    return out & cap


def _size_masks(p: Program, max_nodes: int) -> dict[Pred, int]:
    """Bit i set means the predicate has some derivation tree of exactly i nodes.

    Without this the enumeration tries every way of splitting the node budget
    across a clause body, which goes exponential on recursive predicates; the
    masks let it skip splits that no complete tree can fill.
    """
    cap = (1 << (max_nodes + 1)) - 1
    masks: dict[Pred, int] = {}
    changed = True
    while changed:
        changed = False
        for cl in p.clauses:
            if cl.head is None:
                continue
            new = (_list_mask(cl.body, masks, cap) << 1) & cap
            old = masks.get(cl.head.pred, 0)
            if new & ~old:
                masks[cl.head.pred] = old | new
                changed = True
    return masks


def _list_mask(atoms: tuple[Atom, ...], masks: dict[Pred, int], cap: int) -> int:
    comb = 1
    for a in atoms:
        comb = _shift_or(comb, masks.get(a.pred, 0), cap)
        if not comb:
            break
    return comb


def _trees_for_atom(p: Program, atom: Atom, size: int, acc: ConstraintConj, prune: bool, fresh, masks: dict[Pred, int]):
    if size < 1 or not (masks.get(atom.pred, 0) >> size) & 1:
        return
    for cl in p.clauses_for(atom.pred):
        if len(cl.body) > size - 1:
            continue
        constr, body = rename_clause(cl, atom.args, fresh)
        acc2 = conj_and(acc, constr)
        if prune and not satisfiable(acc2):
            continue
        for children, acc3 in _trees_for_list(p, body, size - 1, acc2, prune, fresh, masks):
            yield AndTree(cl.cid, atom, constr, tuple(children)), acc3


def _trees_for_list(p: Program, atoms: tuple[Atom, ...], size: int, acc: ConstraintConj, prune: bool, fresh, masks: dict[Pred, int]):
    if not atoms:
        if size == 0:
            yield [], acc
        return
    first, rest = atoms[0], atoms[1:]
    cap = (1 << (size + 1)) - 1
    first_mask = masks.get(first.pred, 0)
    rest_mask = _list_mask(rest, masks, cap)
    for k in range(1, size - len(rest) + 1):
        if not (first_mask >> k) & 1 or not (rest_mask >> (size - k)) & 1:
            continue
        for tree, acc2 in _trees_for_atom(p, first, k, acc, prune, fresh, masks):
            for trees, acc3 in _trees_for_list(p, rest, size - k, acc2, prune, fresh, masks):
                yield [tree, *trees], acc3


def iter_and_trees(
    p: Program, max_nodes: int, prune: bool = True
) -> Iterator[tuple[AndTree, ConstraintConj]]:
    """Complete AND-trees for `false`, through the goal clauses, in increasing node count."""
    masks = _size_masks(p, max_nodes)
    for n in range(1, max_nodes + 1):
        counter = itertools.count(1)

        def fresh() -> Var:
            return Var(f"T{next(counter)}")

        for cl in p.goal_clauses():
            if len(cl.body) > n - 1:
                continue
            constr, body = rename_clause(cl, None, fresh)
            if prune and not satisfiable(constr):
                continue
            for children, acc in _trees_for_list(p, body, n - 1, constr, prune, fresh, masks):
                yield AndTree(cl.cid, None, constr, tuple(children)), acc


def find_counterexample(p: Program, max_nodes: int = 40) -> Optional[tuple[AndTree, bool]]:
    """Smallest feasible AND-tree for false, else smallest infeasible one.

    Returns None when no complete tree exists within the bound.  The second
    component tells which case was hit.
    """
    for tree, _ in iter_and_trees(p, max_nodes, prune=True):
        return tree, True
    for tree, _ in iter_and_trees(p, max_nodes, prune=False):
        return tree, False
    return None
