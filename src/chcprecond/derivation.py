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
from dataclasses import dataclass
from typing import Iterator, Optional

from .core import Atom, Pred, Program, rename_clause
from .linarith import (
    ConstraintConj,
    TRUE_CONJ,
    Var,
    conj_and,
    satisfiable,
)


@dataclass(frozen=True)
class TraceTree:
    cid: str
    children: tuple["TraceTree", ...] = ()

    def size(self) -> int:
        return 1 + sum(c.size() for c in self.children)

    def __str__(self) -> str:
        if not self.children:
            return self.cid
        return f"{self.cid}({','.join(str(c) for c in self.children)})"


def parse_trace(text: str) -> TraceTree:
    """Parse term notation, e.g. `c1(c10,c2(c8,c6))`."""
    pos = 0

    def skip_ws() -> None:
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def ident() -> str:
        nonlocal pos
        start = pos
        while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
            pos += 1
        if start == pos:
            raise ValueError(f"trace syntax error at position {pos}")
        return text[start:pos]

    def node() -> TraceTree:
        nonlocal pos
        skip_ws()
        cid = ident()
        skip_ws()
        children = []
        if pos < len(text) and text[pos] == "(":
            pos += 1
            children.append(node())
            skip_ws()
            while pos < len(text) and text[pos] == ",":
                pos += 1
                children.append(node())
                skip_ws()
            if pos >= len(text) or text[pos] != ")":
                raise ValueError(f"expected ')' at position {pos}")
            pos += 1
        return TraceTree(cid, tuple(children))

    t = node()
    skip_ws()
    if pos != len(text):
        raise ValueError(f"trailing input at position {pos}")
    return t


@dataclass(frozen=True)
class AndTree:
    clause_id: str
    atom: Optional[Atom]
    constr: ConstraintConj
    children: tuple["AndTree", ...] = ()

    def size(self) -> int:
        return 1 + sum(c.size() for c in self.children)

    def trace(self) -> TraceTree:
        return TraceTree(self.clause_id, tuple(c.trace() for c in self.children))

    def __str__(self) -> str:
        return str(self.trace())


def constr_of(t: AndTree) -> ConstraintConj:
    acc = t.constr
    for c in t.children:
        acc = conj_and(acc, constr_of(c))
    return acc


def feasible(t: AndTree) -> bool:
    return satisfiable(constr_of(t))


def iter_nodes(t: AndTree) -> Iterator[AndTree]:
    """Preorder walk: the node itself, then children left to right."""
    yield t
    for c in t.children:
        yield from iter_nodes(c)


def instantiate(p: Program, tt: TraceTree) -> AndTree:
    """Build the AND-tree for a trace, with variables renamed apart."""
    counter = itertools.count(1)

    def fresh() -> Var:
        return Var(f"T{next(counter)}")

    def build(node: TraceTree, atom: Optional[Atom]) -> AndTree:
        try:
            cl = p.clause_by_id(node.cid)
        except KeyError:
            raise ValueError(f"unknown clause id {node.cid!r}") from None
        if len(node.children) != len(cl.body):
            raise ValueError(f"arity mismatch at clause {node.cid}")
        expected = atom.args if atom is not None else None
        if (cl.head is None) != (atom is None) or (
            atom is not None and cl.head.pred != atom.pred
        ):
            raise ValueError(f"head mismatch at clause {node.cid}")
        constr, body = rename_clause(cl, expected, fresh)
        children = tuple(build(c, a) for c, a in zip(node.children, body))
        return AndTree(node.cid, atom, constr, children)

    try:
        root = p.clause_by_id(tt.cid)
    except KeyError:
        raise ValueError(f"unknown clause id {tt.cid!r}") from None
    return build(tt, None if root.head is None else _root_atom(p, tt, fresh))


def _root_atom(p: Program, tt: TraceTree, fresh) -> Atom:
    cl = p.clause_by_id(tt.cid)
    return Atom(cl.head.pred, tuple(fresh() for _ in cl.head.args))


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
            comb = 1
            for a in cl.body:
                comb = _shift_or(comb, masks.get(a.pred, 0), cap)
                if not comb:
                    break
            new = (comb << 1) & cap
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
    p: Program,
    max_nodes: int,
    root: Optional[Pred] = None,
    prune: bool = True,
) -> Iterator[tuple[AndTree, ConstraintConj]]:
    """Complete AND-trees in increasing node count.

    With the default root the trees derive `false` through the goal clauses;
    passing a predicate enumerates derivations of that predicate instead
    (used by the query-answer adequacy checks).
    """
    masks = _size_masks(p, max_nodes)
    for n in range(1, max_nodes + 1):
        counter = itertools.count(1)

        def fresh() -> Var:
            return Var(f"T{next(counter)}")

        if root is None:
            for cl in p.goal_clauses():
                if len(cl.body) > n - 1:
                    continue
                constr, body = rename_clause(cl, None, fresh)
                if prune and not satisfiable(constr):
                    continue
                for children, acc in _trees_for_list(p, body, n - 1, constr, prune, fresh, masks):
                    yield AndTree(cl.cid, None, constr, tuple(children)), acc
        else:
            atom = Atom(root, tuple(Var(f"R{i}") for i in range(root.arity)))
            yield from _trees_for_atom(p, atom, n, TRUE_CONJ, prune, fresh, masks)


def find_counterexample(
    p: Program, max_nodes: int = 40, root: Optional[Pred] = None
) -> Optional[tuple[AndTree, bool]]:
    """Smallest feasible AND-tree for false, else smallest infeasible one.

    Returns None when no complete tree exists within the bound.  The second
    component tells which case was hit.
    """
    for tree, _ in iter_and_trees(p, max_nodes, root=root, prune=True):
        return tree, True
    for tree, _ in iter_and_trees(p, max_nodes, root=root, prune=False):
        return tree, False
    return None
