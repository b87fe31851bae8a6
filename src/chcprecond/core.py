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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Optional

import networkx as nx

from .linarith import (
    DNF,
    ConstraintConj,
    Var,
    format_conj,
    make_dnf,
    project,
    rename_conj,
)


@dataclass(frozen=True, order=True)
class Pred:
    name: str
    arity: int

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


# graph node standing for the goal `false`
FALSE_PRED = Pred("false", 0)


@dataclass(frozen=True, order=True)
class Atom:
    pred: Pred
    args: tuple[Var, ...]

    def __post_init__(self) -> None:
        if len(self.args) != self.pred.arity:
            raise ValueError(f"atom {self.pred} with {len(self.args)} args")
        if len(set(self.args)) != len(self.args):
            raise ValueError(f"atom {self.pred} has repeated arguments")

    def __str__(self) -> str:
        inner = ",".join(v.name for v in self.args)
        return f"{self.pred.name}({inner})" if self.args else self.pred.name


def rename_atom(a: Atom, mapping: Mapping[Var, Var]) -> Atom:
    return Atom(a.pred, tuple(mapping.get(v, v) for v in a.args))


@dataclass(frozen=True, order=True)
class Clause:
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


@dataclass(frozen=True)
class Program:
    clauses: tuple[Clause, ...]
    initial_preds: frozenset[Pred]
    init_args: tuple[Var, ...]
    original_init: Optional[DNF] = None

    def preds(self) -> list[Pred]:
        seen: dict[Pred, None] = {}
        for cl in self.clauses:
            if cl.head is not None:
                seen.setdefault(cl.head.pred)
            for a in cl.body:
                seen.setdefault(a.pred)
        return list(seen)

    def clauses_for(self, pred: Pred) -> tuple[Clause, ...]:
        return tuple(c for c in self.clauses if c.head is not None and c.head.pred == pred)

    def goal_clauses(self) -> tuple[Clause, ...]:
        return tuple(c for c in self.clauses if c.head is None)

    def clause_by_id(self, cid: str) -> Clause:
        for c in self.clauses:
            if c.cid == cid:
                return c
        raise KeyError(cid)

    def is_initial(self, pred: Pred) -> bool:
        return pred in self.initial_preds

    def initial_clauses(self) -> tuple[Clause, ...]:
        return tuple(
            c for c in self.clauses if c.is_fact() and c.head.pred in self.initial_preds
        )

    def with_clauses(self, clauses: Iterable[Clause], initial_preds=None) -> "Program":
        out = replace(self, clauses=tuple(clauses))
        if initial_preds is not None:
            out = replace(out, initial_preds=frozenset(initial_preds))
        return out

    def __str__(self) -> str:
        return format_program(self)


def dependency_graph(p: Program) -> "nx.DiGraph":
    """Edge q -> r iff q occurs in the body of a clause with head r."""
    g = nx.DiGraph()
    for pred in p.preds():
        g.add_node(pred)
    if p.goal_clauses():
        g.add_node(FALSE_PRED)
    for cl in p.clauses:
        for a in cl.body:
            g.add_edge(a.pred, cl.head_pred())
    return g


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


def recursive_preds(p: Program) -> frozenset[Pred]:
    """Predicates in a dependency cycle, self-loops included."""
    g = dependency_graph(p)
    out = set()
    for scc in nx.strongly_connected_components(g):
        if len(scc) > 1:
            out |= scc
        else:
            (node,) = scc
            if g.has_edge(node, node):
                out.add(node)
    return frozenset(out)


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
    disjuncts = []
    for cl in p.initial_clauses():
        if len(cl.head.args) != len(p.init_args):
            raise ValueError("initial predicate arity does not match declaration")
        c = project(cl.constr, set(cl.head.args))
        mapping = dict(zip(cl.head.args, p.init_args))
        disjuncts.append(rename_conj(c, mapping))
    return make_dnf(disjuncts)
