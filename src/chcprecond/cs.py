"""Constraint specialisation.

Runs a polyhedral fixpoint over the query-answer transform of the program,
reads off call and answer invariants per source predicate, and strengthens
every clause with the invariants of its body atoms (facts take theirs on
the head, since they have no body).  A clause whose strengthened constraint
can never participate in a derivation of the goal is deleted.

The head's call invariant is deliberately not conjoined into the output
constraint; it only feeds the deletion test.  Conjoining it would still be
a sound strengthening, but the body-and-fact rule is the one that matches
the worked examples this code is tested against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import Clause, Pred, Program, recursive_preds
from .linarith import (
    Var,
    conj_and,
    format_conj,
    project,
    rename_conj,
    satisfiable,
    simplify,
)
from .polyhedra import (
    Polyhedron,
    bottom_poly,
    constr_at,
    includes,
    join,
    widen,
)
from .qa import answer_pred, qa_transform, query_pred

# joins a recursive predicate takes before widening replaces them
WIDENING_DELAY = 2


def _dims(arity: int) -> tuple[Var, ...]:
    return tuple(Var(f"$a{i}") for i in range(arity))


@dataclass(frozen=True)
class InvariantMap:
    """Call and answer invariants per source predicate, over canonical dims."""

    call: dict[Pred, Polyhedron]
    ans: dict[Pred, Polyhedron]

    def call_inv(self, p: Pred) -> Polyhedron:
        return self.call.get(p, bottom_poly(_dims(p.arity)))

    def ans_inv(self, p: Pred) -> Polyhedron:
        return self.ans.get(p, bottom_poly(_dims(p.arity)))

    def dump(self) -> str:
        def show(poly: Polyhedron) -> str:
            return "false" if poly.bottom else format_conj(poly.constr)

        lines = []
        for p in sorted(self.call, key=lambda q: (q.name, q.arity)):
            lines.append(f"{p}: call={show(self.call_inv(p))}; ans={show(self.ans_inv(p))}")
        return "\n".join(lines)


@dataclass(frozen=True)
class CsResult:
    program: Program
    invariants: InvariantMap
    deleted: tuple[str, ...] = ()


def analyze(qa: Program) -> dict[Pred, Polyhedron]:
    """Least-fixpoint approximation over the QA program's predicates."""
    cyclic = recursive_preds(qa)
    state: dict[Pred, Polyhedron] = {}
    joins: dict[Pred, int] = {}
    by_body: dict[Pred, list[int]] = {}
    for i, cl in enumerate(qa.clauses):
        for b in cl.body:
            by_body.setdefault(b.pred, []).append(i)

    worklist = deque(range(len(qa.clauses)))
    queued = set(worklist)
    while worklist:
        i = worklist.popleft()
        queued.discard(i)
        cl = qa.clauses[i]
        sp = _clause_post(cl, state)
        if sp is None or sp.bottom:
            continue
        head = cl.head.pred
        old = state.get(head, bottom_poly(sp.dims))
        # the hull of old with a subset of itself is old, so skip the join
        if includes(old, sp):
            continue
        new = join(old, sp)
        if head in cyclic and joins.get(head, 0) >= WIDENING_DELAY:
            new = widen(old, new)
        joins[head] = joins.get(head, 0) + 1
        state[head] = new
        for j in by_body.get(head, ()):
            if j not in queued:
                worklist.append(j)
                queued.add(j)
    return state


def _clause_post(cl: Clause, state: dict[Pred, Polyhedron]):
    """Strongest postcondition of one QA clause under the current state."""
    acc = cl.constr
    for b in cl.body:
        poly = state.get(b.pred)
        if poly is None or poly.bottom:
            return None
        if not poly.is_top():
            acc = conj_and(acc, constr_at(poly, b.args))
    if not satisfiable(acc):
        return None
    dims = _dims(len(cl.head.args))
    # acc is satisfiable, so its projection is too
    over_args = project(acc, set(cl.head.args))
    return Polyhedron(dims, rename_conj(over_args, dict(zip(cl.head.args, dims))))


def invariants_for(p: Program) -> InvariantMap:
    state = analyze(qa_transform(p))
    call: dict[Pred, Polyhedron] = {}
    ans: dict[Pred, Polyhedron] = {}
    for pred in p.preds():
        call[pred] = state.get(query_pred(pred), bottom_poly(_dims(pred.arity)))
        ans[pred] = state.get(answer_pred(pred), bottom_poly(_dims(pred.arity)))
    return InvariantMap(call, ans)


def strengthen(p: Program, inv: InvariantMap) -> tuple[Program, tuple[str, ...]]:
    """Conjoin invariants per the body-and-fact rule; drop dead clauses."""
    kept = []
    deleted = []
    for cl in p.clauses:
        constr = cl.constr
        dead = False
        for b in cl.body:
            cp, ap = inv.call_inv(b.pred), inv.ans_inv(b.pred)
            if cp.bottom or ap.bottom:
                dead = True
                break
            constr = conj_and(constr, constr_at(cp, b.args))
            constr = conj_and(constr, constr_at(ap, b.args))
        if not dead and not cl.body and cl.head is not None:
            cp, ap = inv.call_inv(cl.head.pred), inv.ans_inv(cl.head.pred)
            if cp.bottom or ap.bottom:
                dead = True
            else:
                constr = conj_and(constr, constr_at(cp, cl.head.args))
                constr = conj_and(constr, constr_at(ap, cl.head.args))
        if dead or not satisfiable(constr):
            deleted.append(cl.cid)
            continue
        constr = simplify(constr)
        if cl.body and cl.head is not None:
            head_call = inv.call_inv(cl.head.pred)
            if head_call.bottom or not satisfiable(
                conj_and(constr, constr_at(head_call, cl.head.args))
            ):
                deleted.append(cl.cid)
                continue
        kept.append(Clause(cl.cid, cl.head, constr, cl.body))
    out = Program(tuple(kept), p.initial_preds, p.init_args, p.original_init)
    return out, tuple(deleted)


def constraint_specialise(p: Program) -> CsResult:
    inv = invariants_for(p)
    out, deleted = strengthen(p, inv)
    return CsResult(out, inv, deleted)
