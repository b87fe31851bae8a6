"""Program model for constrained Horn clauses.

A clause is `head <- constr, body` where the head is an atom or None for the
distinguished goal `false`, the constraint is a conjunction over the clause
variables, and the body is a tuple of atoms.  Atom arguments are always
pairwise distinct variables; the parser pushes argument bindings into the
constraint, which keeps renaming and projection uniform in the transforms.

A program carries the set of initial predicates.  The source program has one,
declared explicitly, but transformations split it into versions; every
version stays registered here so precondition extraction can find all
initial clauses.  `init_args` keeps the original argument names so reported
preconditions read in the user's variables.

The records are named tuples, so building, hashing, comparing and sorting
them runs in C.  A record therefore equals the plain tuple of its fields
and hashes like it, as a `Var` equals the `str` of its name: no dict or set
may mix the two.  `Atom` checks its arguments when built, and `Program`
keeps its clause indexes in its instance dict, so each is a subclass of a
private named tuple of its fields.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, KeysView, Mapping, NamedTuple, Optional

from .linarith import (
    DNF,
    ConstraintConj,
    Var,
    conj_vars,
    format_conj,
    make_dnf,
    project_onto,
    rename_conj,
)


class Pred(NamedTuple):
    name: str
    arity: int

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


# graph node standing for the goal `false`
FALSE_PRED = Pred("false", 0)


class _AtomFields(NamedTuple):
    pred: Pred
    args: tuple[Var, ...]


class Atom(_AtomFields):
    """A predicate applied to pairwise distinct variables, one per argument."""

    __slots__ = ()

    def __new__(cls, pred: Pred, args: tuple[Var, ...]) -> Atom:
        self = tuple.__new__(cls, (pred, args))
        if len(args) != pred.arity:
            raise ValueError(f"atom {pred} with {len(args)} args")
        if len(set(args)) != len(args):
            raise ValueError(f"atom {pred} has repeated arguments")
        return self

    def __str__(self) -> str:
        inner = ",".join(v.name for v in self.args)
        return f"{self.pred.name}({inner})" if self.args else self.pred.name


def rename_atom(a: Atom, mapping: Mapping[Var, Var]) -> Atom:
    return Atom(a.pred, tuple(mapping.get(v, v) for v in a.args))


class Clause(NamedTuple):
    cid: str
    head: Optional[Atom]
    constr: ConstraintConj
    body: tuple[Atom, ...]

    def head_pred(self) -> Pred:
        return self.head.pred if self.head is not None else FALSE_PRED

    def is_fact(self) -> bool:
        return self.head is not None and not self.body

    def __str__(self) -> str:
        return format_clause(self)


class _ProgramFields(NamedTuple):
    clauses: tuple[Clause, ...]
    initial_preds: frozenset[Pred]
    init_args: tuple[Var, ...]
    original_init: Optional[DNF] = None


class Program(_ProgramFields):
    """Clauses with their initial predicates and declared initial arguments.

    No `__slots__`: the instance dict holds the clause indexes.
    """

    def preds(self) -> list[Pred]:
        seen: dict[Pred, None] = {}
        for cl in self.clauses:
            if cl.head is not None:
                seen.setdefault(cl.head.pred)
            for a in cl.body:
                seen.setdefault(a.pred)
        return list(seen)

    # clauses by head predicate (the goal `false` under FALSE_PRED) and by
    # id, each built on first use; a Program never changes after that
    @cached_property
    def _by_head(self) -> dict[Pred, tuple[Clause, ...]]:
        out: dict[Pred, list[Clause]] = {}
        for c in self.clauses:
            out.setdefault(c.head_pred(), []).append(c)
        return {pred: tuple(cs) for pred, cs in out.items()}

    @cached_property
    def _by_id(self) -> dict[str, Clause]:
        # reversed, so the first clause with an id wins
        return {c.cid: c for c in reversed(self.clauses)}

    def clauses_for(self, pred: Pred) -> tuple[Clause, ...]:
        """The clauses with head `pred`; FALSE_PRED gives the goal clauses."""
        return self._by_head.get(pred, ())

    def goal_clauses(self) -> tuple[Clause, ...]:
        return self.clauses_for(FALSE_PRED)

    def clause_by_id(self, cid: str) -> Clause:
        return self._by_id[cid]

    def is_initial(self, pred: Pred) -> bool:
        return pred in self.initial_preds

    def initial_clauses(self) -> tuple[Clause, ...]:
        return tuple(
            c for c in self.clauses if c.is_fact() and c.head.pred in self.initial_preds
        )

    def with_clauses(self, clauses: Iterable[Clause], initial_preds=None) -> "Program":
        if initial_preds is None:
            return self._replace(clauses=tuple(clauses))
        return self._replace(clauses=tuple(clauses), initial_preds=frozenset(initial_preds))

    def __str__(self) -> str:
        return format_program(self)


def dependency_graph(p: Program) -> dict[Pred, KeysView[Pred]]:
    """Successors: edge q -> r iff q occurs in the body of a clause with head r.

    Each node's successors are the keys view of a dict, so they test and
    compare like a set but iterate in clause order, whatever the hash seed.
    """
    g: dict[Pred, dict[Pred, None]] = {pred: {} for pred in p.preds()}
    if p.goal_clauses():
        g[FALSE_PRED] = {}
    for cl in p.clauses:
        for a in cl.body:
            g[a.pred][cl.head_pred()] = None
    return {v: succs.keys() for v, succs in g.items()}


def reachable(g: Mapping[Pred, Iterable[Pred]], roots: Iterable[Pred]) -> set[Pred]:
    """Nodes of `g` reachable from `roots`, the roots in `g` included."""
    seen = {r for r in roots if r in g}
    todo = list(seen)
    while todo:
        for w in g[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def check_initial_coverage(p: Program) -> bool:
    """True iff every derivation skeleton of false passes an initial clause.

    Works on skeletons, ignoring constraints, because the property quantifies
    over infeasible AND-trees as well.  A predicate is derivable-without-init
    if it has a clause, other than an initial fact, whose body predicates are
    all derivable-without-init.
    """
    derivable: set[Pred] = set()
    changed = True
    while changed:
        changed = False
        for cl in p.clauses:
            if cl.head is None:
                continue
            hp = cl.head.pred
            if hp in derivable:
                continue
            if hp in p.initial_preds and not cl.body:
                continue
            if all(b.pred in derivable for b in cl.body):
                derivable.add(hp)
                changed = True
    for cl in p.goal_clauses():
        if all(b.pred in derivable for b in cl.body):
            return False
    return True


def sccs(g: Mapping[Pred, Iterable[Pred]]) -> list[list[Pred]]:
    """Strongly connected components of `g`, each before its successors.

    Tarjan's algorithm (Tarjan 1972), with an explicit stack of successor
    iterators in place of recursion, so deep programs cannot exhaust the
    interpreter's recursion limit.  Tarjan closes a component only after
    every component it reaches, so the reversed output is a topological
    order: on a dependency graph, bodies before heads.  Roots and
    successors are visited in `g`'s iteration order, which fixes the result.
    """
    index: dict[Pred, int] = {}
    low: dict[Pred, int] = {}
    stack: list[Pred] = []
    on_stack: set[Pred] = set()
    out: list[list[Pred]] = []
    for root in g:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(g[root]))]
        while work:
            v, succs = work[-1]
            for w in succs:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(g[w])))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    scc = []
                    while not scc or scc[-1] != v:
                        scc.append(stack.pop())
                        on_stack.discard(scc[-1])
                    out.append(scc)
    out.reverse()
    return out


def recursive_preds(p: Program) -> frozenset[Pred]:
    """Predicates in a dependency cycle, self-loops included."""
    g = dependency_graph(p)
    cyclic = (scc for scc in sccs(g) if len(scc) > 1 or scc[0] in g[scc[0]])
    return frozenset(v for scc in cyclic for v in scc)


def rename_clause(
    cl: Clause,
    expected: Optional[tuple[Var, ...]],
    fresh: Callable[[], Var],
    taken: Optional[set[str]] = None,
) -> tuple[ConstraintConj, tuple[Atom, ...]]:
    """Rename a clause apart, mapping its head args onto `expected`.

    Variables are visited head args first, then body args, then the
    constraint's variables in sorted order, so the names drawn from `fresh`
    never depend on set iteration order.  With `taken` None every other
    variable gets a fresh name.  Otherwise a variable keeps its name when
    that name is free, and fresh names skip over taken ones.
    """
    mapping: dict[Var, Var] = {}
    if cl.head is not None and expected is not None:
        mapping.update(zip(cl.head.args, expected))
    if taken is not None:
        taken = taken | {v.name for v in mapping.values()}
    order: list[Var] = list(cl.head.args) if cl.head is not None else []
    for a in cl.body:
        order.extend(a.args)
    order.extend(sorted(conj_vars(cl.constr)))
    for v in order:
        if v in mapping:
            continue
        if taken is None:
            mapping[v] = fresh()
            continue
        nv = v
        while nv.name in taken:
            nv = fresh()
        mapping[v] = nv
        taken.add(nv.name)
    return rename_conj(cl.constr, mapping), tuple(rename_atom(a, mapping) for a in cl.body)


# -- printing ------------------------------------------------------------------


def format_clause(cl: Clause) -> str:
    head = str(cl.head) if cl.head is not None else "false"
    parts = []
    if not cl.constr.is_true():
        parts.append(format_conj(cl.constr))
    parts.extend(str(a) for a in cl.body)
    if not parts:
        return f"{cl.cid}. {head}."
    return f"{cl.cid}. {head} :- {', '.join(parts)}."


def format_program(p: Program) -> str:
    lines = []
    for pred in sorted(p.initial_preds):
        lines.append(f":- initial({pred.name}/{pred.arity}).")
    lines.extend(format_clause(cl) for cl in p.clauses)
    return "\n".join(lines) + "\n"


def initial_constraint_dnf(p: Program) -> DNF:
    """Disjunction of initial-clause constraints over `init_args`.

    Each fact's constraint is projected onto its own argument tuple and then
    renamed positionally, so versions produced by the transforms all land on
    the same variables.  A fact whose arity differs from `init_args` raises
    ValueError.
    """
    return make_dnf(onto_init_args(p, cl.constr, cl.head.args) for cl in p.initial_clauses())


def onto_init_args(p: Program, c: ConstraintConj, args: tuple[Var, ...]) -> ConstraintConj:
    """c projected onto an initial atom's `args`, renamed onto `init_args`.

    Raises ValueError when the atom's arity differs from `init_args`.
    """
    if len(args) != len(p.init_args):
        raise ValueError("initial predicate arity does not match declaration")
    return project_onto(c, args, p.init_args)
