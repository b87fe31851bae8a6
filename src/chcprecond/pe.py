"""Partial evaluation with property-based abstraction.

The run keeps a set S of constrained facts, seeded with false <- true.
Each element is unfolded against the program; every remaining body atom
contributes a new constrained fact, abstracted to the conjunction of the
properties it entails.  Versions are identified by the satisfied-property
subset, except for the initial predicate, whose versions are kept apart by
their projected call constraint so distinct call contexts stay distinct.
The emitted program renames every predicate occurrence to its version.

Unfolding selects body atoms that are never initial and never recursive,
and either have a single defining clause or cannot reach the initial
predicate at all.  The single-clause test counts clauses statically;
counting only context-satisfiable clauses sounds more precise but makes
the unfolding depend on the call context in ways that reorder versions.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property
from typing import Callable, NamedTuple

from .core import (
    FALSE_PRED,
    Atom,
    Clause,
    Pred,
    Program,
    check_initial_coverage,
    dependency_graph,
    format_clause,
    reachable,
    recursive_preds,
    rename_clause,
)
from .linarith import (
    ConstraintConj,
    TRUE_CONJ,
    Var,
    conj_and,
    conj_vars,
    entails,
    format_conj,
    project,
    project_onto,
    satisfiable,
    simplify,
    warn,
)


VERSION_CAP = 1024


def canonical_args(p: Program) -> dict[Pred, tuple[Var, ...]]:
    """A fixed argument tuple per predicate, from its first occurrence."""
    canon: dict[Pred, tuple[Var, ...]] = {}
    for cl in p.clauses:
        if cl.head is not None and cl.head.pred not in canon:
            canon[cl.head.pred] = cl.head.args
        for a in cl.body:
            if a.pred not in canon:
                canon[a.pred] = a.args
    return canon


def gen_properties(
    p: Program, canon: dict[Pred, tuple[Var, ...]], pred: Pred
) -> tuple[ConstraintConj, ...]:
    """Projections of each clause constraint onto pred's atoms and single args.

    The clauses are walked in order, each one's body atoms before its head.
    A single argument's projection is taken from the atom's projection, on
    the canonical names: it is the same set, and a one-variable projection
    has one canonical form.
    """
    onto = canon[pred]
    props: list[ConstraintConj] = []
    for cl in p.clauses:
        for atom in cl.body + ((cl.head,) if cl.head is not None else ()):
            if atom.pred != pred:
                continue
            whole = project_onto(cl.constr, atom.args, onto)
            for c in (whole, *(project(whole, (w,)) for w in onto)):
                if not c.is_true() and c not in props:
                    props.append(c)
    return tuple(props)


def rep_psi(
    props: Callable[[Pred], tuple[ConstraintConj, ...]], pred: Pred, constr: ConstraintConj
) -> tuple[ConstraintConj, frozenset[int]]:
    """Abstract constr to the conjunction of pred's entailed properties."""
    acc = TRUE_CONJ
    sat = []
    for i, psi in enumerate(props(pred)):
        if entails(constr, psi):
            acc = conj_and(acc, psi)
            sat.append(i)
    return acc, frozenset(sat)


class _Element(NamedTuple):
    """One member of S: a predicate version with its stored constraint."""

    pred: Pred
    name: str
    theta: ConstraintConj
    step: int


class _PeResultFields(NamedTuple):
    program: Program
    # per step: the elements of S it added, as (name, args, theta), and the
    # clauses of R they gave
    added: tuple[
        tuple[int, tuple[tuple[str, tuple[Var, ...], ConstraintConj], ...], tuple[Clause, ...]],
        ...,
    ]


class PeResult(_PeResultFields):
    """The specialised program, and what each step added to S and R.

    `table`, the same rows as text, is formatted on first access and then
    cached in the instance dict, so the class has no `__slots__`.
    """

    @cached_property
    def table(self) -> tuple[tuple[int, tuple[str, ...], tuple[str, ...]], ...]:
        return tuple(
            (
                step,
                tuple(f"{name}{_args_str(args)} <- {format_conj(theta)}" for name, args, theta in s),
                tuple(format_clause(cl) for cl in r),
            )
            for step, s, r in self.added
        )

    def dump(self) -> str:
        lines = []
        for step, added_s, added_r in self.table:
            lines.append(f"step {step}:")
            for s in added_s:
                lines.append(f"  S + {s}")
            for r in added_r:
                lines.append(f"  R + {r}")
        return "\n".join(lines)


def _unfold(
    p: Program,
    pred: Pred,
    theta: ConstraintConj,
    canon: dict[Pred, tuple[Var, ...]],
    unfoldable,
    fresh,
) -> list[tuple[ConstraintConj, tuple[Atom, ...]]]:
    """Resolve a constrained fact against the program, unfolding eagerly.

    Returns the satisfiable resultants as (constraint, remaining body atoms).
    """
    out: list[tuple[ConstraintConj, tuple[Atom, ...]]] = []

    def resolvents(constr: ConstraintConj, atoms: tuple[Atom, ...], i: int):
        """The satisfiable resolvents on atom i, renamed apart as they are drawn."""
        a = atoms[i]
        taken = {v.name for v in conj_vars(constr)}
        for at in atoms:
            taken.update(v.name for v in at.args)
        for dcl in p.clauses_for(a.pred):
            dconstr, dbody = rename_clause(dcl, a.args, fresh, taken)
            merged = conj_and(constr, dconstr)
            if satisfiable(merged):
                yield merged, atoms[:i] + dbody + atoms[i + 1 :]

    def expand(constr: ConstraintConj, atoms: tuple[Atom, ...]) -> None:
        # depth first, with one lazy iterator per unfolded atom on an explicit
        # stack: a resolvent is renamed only after its elder sibling has been
        # expanded completely, so fresh names come in recursion order
        stack = [iter(((constr, atoms),))]
        while stack:
            nxt = next(stack[-1], None)
            if nxt is None:
                stack.pop()
                continue
            constr, atoms = nxt
            i = next((i for i, a in enumerate(atoms) if unfoldable(a.pred)), None)
            if i is None:
                out.append((constr, atoms))
            else:
                stack.append(resolvents(constr, atoms, i))

    for cl in p.clauses_for(pred):
        expected = canon.get(pred)
        taken = {v.name for v in expected} if expected else set()
        taken.update(v.name for v in conj_vars(theta))
        constr0, body = rename_clause(cl, expected, fresh, taken)
        merged = conj_and(theta, constr0)
        if satisfiable(merged):
            expand(merged, body)
    return out


def pe_run(p: Program) -> PeResult:
    """Iterate S to its finite limit and emit the renamed unfolded program."""
    if not check_initial_coverage(p):
        raise ValueError("coverage check failed")
    canon = canonical_args(p)
    canon[FALSE_PRED] = ()

    # rep_psi never runs for initial or unfolded predicates, so each
    # predicate's properties are projected when rep_psi first reads them
    @cache
    def props(pred: Pred) -> tuple[ConstraintConj, ...]:
        return gen_properties(p, canon, pred)

    recursive = recursive_preds(p)
    init_reach = reachable(dependency_graph(p), p.initial_preds)

    def unfoldable(pred: Pred) -> bool:
        if p.is_initial(pred) or pred in recursive or pred == FALSE_PRED:
            return False
        if len(p.clauses_for(pred)) == 1:
            return True
        return pred not in init_reach

    counter = itertools.count(1)

    def fresh() -> Var:
        return Var(f"U{next(counter)}")

    elements: dict[object, _Element] = {}
    resultants: dict[object, list] = {}
    name_counts: dict[str, int] = {}
    capped = False

    def version(pred: Pred, projected: ConstraintConj) -> tuple[tuple, ConstraintConj]:
        """The key of projected's version of pred, and the constraint it stores."""
        if pred in p.initial_preds and not capped:
            return ("init", pred, projected), projected
        abstracted, subset = rep_psi(props, pred, projected)
        return ("psi", pred, subset), abstracted

    def new_element(pred: Pred, projected: ConstraintConj, step: int) -> _Element:
        key, theta = version(pred, projected)
        if key in elements:
            return elements[key]
        nonlocal capped
        if len(elements) >= VERSION_CAP and not capped:
            capped = True
            warn("version cap reached; keying initial versions by property subset")
            key, theta = version(pred, projected)
            if key in elements:
                return elements[key]
        if pred == FALSE_PRED:
            name = pred.name
        else:
            k = name_counts.get(pred.name, 0) + 1
            name_counts[pred.name] = k
            name = f"{pred.name}_{k}"
        elem = _Element(pred, name, theta, step)
        elements[key] = elem
        queue.append(key)
        return elem

    queue: list = []
    new_element(FALSE_PRED, TRUE_CONJ, 0)
    qi = 0
    while qi < len(queue):
        key = queue[qi]
        qi += 1
        elem = elements[key]
        rs = _unfold(p, elem.pred, elem.theta, canon, unfoldable, fresh)
        annotated = []
        for constr, atoms in rs:
            children = []
            for a in atoms:
                projected = project_onto(constr, a.args, canon[a.pred])
                child = new_element(a.pred, projected, elem.step + 1)
                children.append(child.name)
            annotated.append((constr, atoms, tuple(children)))
        resultants[key] = annotated

    clauses = []
    cid = itertools.count(1)
    steps: dict[int, tuple[list, list[Clause]]] = {}
    for key, elem in elements.items():
        row = steps.setdefault(elem.step, ([], []))
        # false's name is "false", its args () and its theta true
        row[0].append((elem.name, canon[elem.pred], elem.theta))
        for constr, atoms, children in resultants[key]:
            if elem.pred == FALSE_PRED:
                head = None
            else:
                head = Atom(Pred(elem.name, elem.pred.arity), canon[elem.pred])
            body = tuple(
                Atom(Pred(child, a.pred.arity), a.args) for a, child in zip(atoms, children)
            )
            cl = Clause(f"c{next(cid)}", head, simplify(constr), body)
            clauses.append(cl)
            row[1].append(cl)

    initial_preds = frozenset(
        Pred(elem.name, elem.pred.arity)
        for elem in elements.values()
        if elem.pred in p.initial_preds
    )
    program = p.with_clauses(clauses, initial_preds)
    added = tuple((s, tuple(steps[s][0]), tuple(steps[s][1])) for s in sorted(steps))
    return PeResult(program, added)


def _args_str(args: tuple[Var, ...]) -> str:
    if not args:
        return ""
    return "(" + ",".join(v.name for v in args) + ")"
