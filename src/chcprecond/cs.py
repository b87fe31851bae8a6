"""Constraint specialisation.

Runs a polyhedral fixpoint over the query-answer transform of the program,
reads off call and answer invariants per source predicate, and strengthens
every clause with the invariants of its body atoms (facts take theirs on
the head, since they have no body).  A clause whose strengthened constraint
can never participate in a derivation of the goal is deleted.

The fixpoint visits the QA program one strongly connected component of
its dependency graph at a time, bodies before heads (Bourdoncle, FMPA
1993): a worklist runs over one component's clauses, entry clauses first,
until none of them adds anything to its head, and only then does the next
component start.  No clause of a later component feeds an earlier one, so
a finished component's states are final, and each component ends at a
post-fixpoint given the final states of the components before it.
Joining a head only once its bodies are stable keeps the hulls small and
the widenings few.

An invariant is a conjunction over the canonical dims `$a0..$a{n-1}`,
joined and widened by `polyhedra`; `FALSE_CONJ` is the invariant of a
predicate that is never called or never answers.

The head's call invariant is deliberately not conjoined into the output
constraint; it only feeds the deletion test.  Conjoining it would still be
a sound strengthening, but the body-and-fact rule is the one that matches
the worked examples this code is tested against.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .core import Atom, Clause, Pred, Program, dependency_graph, sccs
from .linarith import (
    FALSE_CONJ,
    RUN,
    ConstraintConj,
    Var,
    conj_and,
    entails,
    format_conj,
    project_onto,
    rename_conj,
    satisfiable,
    simplify,
)
from .polyhedra import join, widen
from .qa import answer_pred, qa_transform, query_pred

# joins a recursive predicate takes before widening replaces them
WIDENING_DELAY = 2


def _dims(arity: int) -> tuple[Var, ...]:
    return tuple(Var(f"$a{i}") for i in range(arity))


def _at(c: ConstraintConj, atom: Atom) -> ConstraintConj:
    """c, over the canonical dims, renamed positionally onto the atom's args.

    Within a run the answer is kept in the run, since the worklist and
    `strengthen` rename the same invariant onto the same atom again and again.
    """
    run = RUN.get()
    if run is None:
        return rename_conj(c, dict(zip(_dims(len(atom.args)), atom.args)))
    key = (c, atom.args)
    out = run.at.get(key)
    if out is None:
        out = run.at[key] = rename_conj(c, dict(zip(_dims(len(atom.args)), atom.args)))
    return out


class InvariantMap(NamedTuple):
    """Call and answer invariants per source predicate, over canonical dims.

    A predicate with no entry, or mapped to `FALSE_CONJ`, is never called
    or never answers.
    """

    call: dict[Pred, ConstraintConj]
    ans: dict[Pred, ConstraintConj]

    def call_inv(self, p: Pred) -> ConstraintConj:
        return self.call.get(p, FALSE_CONJ)

    def ans_inv(self, p: Pred) -> ConstraintConj:
        return self.ans.get(p, FALSE_CONJ)

    def dump(self) -> str:
        lines = []
        for p in sorted(self.call, key=lambda q: (q.name, q.arity)):
            lines.append(
                f"{p}: call={format_conj(self.call_inv(p))}; ans={format_conj(self.ans_inv(p))}"
            )
        return "\n".join(lines)


class CsResult(NamedTuple):
    program: Program
    invariants: InvariantMap
    deleted: tuple[str, ...] = ()


def analyze(qa: Program) -> dict[Pred, ConstraintConj]:
    """Least-fixpoint approximation over the QA program's predicates.

    Components go in `sccs` order, each by a worklist over its own clauses:
    first the entry clauses, whose body atoms all lie in earlier components,
    then the clauses that loop back into it, each group in clause order.
    An entry clause reads only final states, so one visit settles it, and
    visiting every entry first means that widening, which keeps only
    constraints of the state it widens, starts from the hull of them all.
    Only the heads of a component with such a loop widen.  Every
    conjunction in the state is satisfiable; a predicate with none is
    bottom.
    """
    comps = sccs(dependency_graph(qa))
    rank = {pred: r for r, comp in enumerate(comps) for pred in comp}
    entries: list[list[int]] = [[] for _ in comps]
    loops: list[list[int]] = [[] for _ in comps]
    # the clauses to revisit when a predicate grows, all in its component
    by_body: dict[Pred, list[int]] = {}
    for i, cl in enumerate(qa.clauses):
        r = rank[cl.head.pred]
        inner = [b.pred for b in cl.body if rank[b.pred] == r]
        (loops if inner else entries)[r].append(i)
        for b in inner:
            by_body.setdefault(b, []).append(i)

    state: dict[Pred, ConstraintConj] = {}
    joins: dict[Pred, int] = {}
    for entry, loop in zip(entries, loops):
        worklist = deque(entry + loop)
        queued = set(worklist)
        while worklist:
            i = worklist.popleft()
            queued.discard(i)
            cl = qa.clauses[i]
            sp = _clause_post(cl, state)
            if sp is None:
                continue
            head = cl.head.pred
            old = state.get(head)
            if old is None:
                new = sp
            elif entails(sp, old):
                # the hull of old with a subset of itself is old, so skip the join
                continue
            else:
                new = join(old, sp)
                if loop and joins.get(head, 0) >= WIDENING_DELAY:
                    new = widen(old, new)
            joins[head] = joins.get(head, 0) + 1
            state[head] = new
            for j in by_body.get(head, ()):
                if j not in queued:
                    worklist.append(j)
                    queued.add(j)
    return state


def _clause_post(cl: Clause, state: dict[Pred, ConstraintConj]):
    """Strongest postcondition of one QA clause under the current state."""
    acc = cl.constr
    for b in cl.body:
        c = state.get(b.pred)
        if c is None:
            return None
        if not c.is_true():
            acc = conj_and(acc, _at(c, b))
    if not satisfiable(acc):
        return None
    # acc is satisfiable, so its projection is too
    return project_onto(acc, cl.head.args, _dims(len(cl.head.args)))


def invariants_for(p: Program) -> InvariantMap:
    state = analyze(qa_transform(p))
    call = {pred: state.get(query_pred(pred), FALSE_CONJ) for pred in p.preds()}
    ans = {pred: state.get(answer_pred(pred), FALSE_CONJ) for pred in p.preds()}
    return InvariantMap(call, ans)


def strengthen(p: Program, inv: InvariantMap) -> tuple[Program, tuple[str, ...]]:
    """Conjoin invariants per the body-and-fact rule; drop dead clauses."""
    kept = []
    deleted = []
    for cl in p.clauses:
        constr = cl.constr
        for a in cl.body if not cl.is_fact() else (cl.head,):
            cp, ap = inv.call_inv(a.pred), inv.ans_inv(a.pred)
            if cp.is_false() or ap.is_false():
                constr = FALSE_CONJ
                break
            constr = conj_and(conj_and(constr, _at(cp, a)), _at(ap, a))
        if not satisfiable(constr):
            deleted.append(cl.cid)
            continue
        constr = simplify(constr)
        if cl.body and cl.head is not None:
            head_call = inv.call_inv(cl.head.pred)
            if head_call.is_false() or not satisfiable(
                conj_and(constr, _at(head_call, cl.head))
            ):
                deleted.append(cl.cid)
                continue
        kept.append(Clause(cl.cid, cl.head, constr, cl.body))
    out = p.with_clauses(kept)
    return out, tuple(deleted)


def constraint_specialise(p: Program) -> CsResult:
    inv = invariants_for(p)
    out, deleted = strengthen(p, inv)
    return CsResult(out, inv, deleted)
