"""Partial evaluation with property-based abstraction.

The run keeps a set S of constrained facts, seeded with false <- true, and
works it off as a queue.  An element `pred(args) <- theta` is unfolded from
its own atom: resolving that atom against pred's clauses is the same step
as resolving any body atom selected later.  Each resultant's remaining
body atoms become constrained facts of their own, abstracted to the
conjunction of the properties they entail.  Versions are identified by the
satisfied-property subset, except for the initial predicate, whose
versions are kept apart by their projected call constraint so distinct
call contexts stay distinct.  The element's clauses, with every predicate
occurrence renamed to its version, are emitted as it is unfolded.

Unfolding selects body atoms that are never initial and never recursive,
and either have a single defining clause or cannot reach the initial
predicate at all.  The single-clause test counts clauses statically;
counting only context-satisfiable clauses sounds more precise but makes
the unfolding depend on the call context in ways that reorder versions.
"""

from __future__ import annotations

import itertools
from functools import cache
from typing import Iterator, NamedTuple

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
    props: tuple[ConstraintConj, ...], constr: ConstraintConj
) -> tuple[ConstraintConj, frozenset[int]]:
    """Abstract constr to the conjunction of the properties in props it entails."""
    acc = TRUE_CONJ
    sat = []
    for i, psi in enumerate(props):
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


class PeResult(NamedTuple):
    """The specialised program, and what each step added to S and R."""

    program: Program
    # per step: the elements of S it added, as (name, args, theta), and the
    # clauses of R they gave
    added: tuple[
        tuple[int, tuple[tuple[str, tuple[Var, ...], ConstraintConj], ...], tuple[Clause, ...]],
        ...,
    ]

    def dump(self) -> str:
        lines = []
        for step, added_s, added_r in self.added:
            lines.append(f"step {step}:")
            for name, args, theta in added_s:
                lines.append(f"  S + {name}{_args_str(args)} <- {format_conj(theta)}")
            for cl in added_r:
                lines.append(f"  R + {format_clause(cl)}")
        return "\n".join(lines)


def _unfold(
    p: Program,
    atom: Atom,
    theta: ConstraintConj,
    unfoldable,
    fresh,
) -> Iterator[tuple[ConstraintConj, tuple[Atom, ...]]]:
    """Resolve the constrained fact `atom <- theta` against the program, unfolding eagerly.

    Yields the satisfiable resultants as (constraint, remaining body atoms).
    The element's own atom is resolved like every atom unfolded after it:
    depth first, with one lazy iterator per resolved atom on an explicit
    stack, so a resolvent is renamed only after its elder sibling has been
    expanded completely and fresh names come in recursion order.
    """

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

    stack = [resolvents(theta, (atom,), 0)]
    while stack:
        nxt = next(stack[-1], None)
        if nxt is None:
            stack.pop()
            continue
        constr, atoms = nxt
        i = next((i for i, a in enumerate(atoms) if unfoldable(a.pred)), None)
        if i is None:
            yield constr, atoms
        else:
            stack.append(resolvents(constr, atoms, i))


def pe_run(p: Program) -> PeResult:
    """Iterate S to its finite limit, emitting each element's clauses as it is unfolded.

    S is worked off as a queue, in the order it was filled.  Unfolding an
    element makes its children, which join the end of the queue one step
    later, and emits its row of the table at once: the element itself, then
    its clauses, renamed to the versions of their atoms and numbered c1,
    c2, ... in emission order.
    """
    if not check_initial_coverage(p):
        raise ValueError("coverage check failed")
    canon = canonical_args(p)
    canon[FALSE_PRED] = ()

    # rep_psi never runs for initial or unfolded predicates, so each
    # predicate's properties are projected when a version first needs them
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
    queue: list[_Element] = []
    name_counts: dict[str, int] = {}
    capped = False

    def version(pred: Pred, projected: ConstraintConj) -> tuple[tuple, ConstraintConj]:
        """The key of projected's version of pred, and the constraint it stores."""
        if pred in p.initial_preds and not capped:
            return ("init", pred, projected), projected
        abstracted, subset = rep_psi(props(pred), projected)
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
        queue.append(elem)
        return elem

    new_element(FALSE_PRED, TRUE_CONJ, 0)
    clauses: list[Clause] = []
    steps: dict[int, tuple[list, list[Clause]]] = {}
    # the loop also visits the elements that new_element appends to the queue
    for elem in queue:
        args = canon[elem.pred]
        row = steps.setdefault(elem.step, ([], []))
        # false's name is "false", its args () and its theta true
        row[0].append((elem.name, args, elem.theta))
        head = None if elem.pred == FALSE_PRED else Atom(Pred(elem.name, elem.pred.arity), args)
        for constr, atoms in _unfold(p, Atom(elem.pred, args), elem.theta, unfoldable, fresh):
            body = []
            for a in atoms:
                projected = project_onto(constr, a.args, canon[a.pred])
                child = new_element(a.pred, projected, elem.step + 1)
                body.append(Atom(Pred(child.name, a.pred.arity), a.args))
            cl = Clause(f"c{len(clauses) + 1}", head, simplify(constr), tuple(body))
            clauses.append(cl)
            row[1].append(cl)

    initial_preds = frozenset(
        Pred(elem.name, elem.pred.arity) for elem in queue if elem.pred in p.initial_preds
    )
    program = p.with_clauses(clauses, initial_preds)
    added = tuple((s, tuple(steps[s][0]), tuple(steps[s][1])) for s in sorted(steps))
    return PeResult(program, added)


def _args_str(args: tuple[Var, ...]) -> str:
    if not args:
        return ""
    return "(" + ",".join(v.name for v in args) + ")"
