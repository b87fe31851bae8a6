"""Shared oracles for the test suite.

Everything here is kept independent of the transforms under test: points
are evaluated directly against the canonical constraint form, skeleton
languages are enumerated by a plain recursion over clause identifiers, and
clause comparison goes through projection onto the visible arguments.
"""

from __future__ import annotations

import importlib.util
import itertools
import re
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from chcprecond.core import FALSE_PRED, Atom, Clause, Pred, Program, initial_constraint_dnf
from chcprecond.derivation import AndTree, constr_of
from chcprecond.linarith import (
    DNF,
    DNF_FALSE,
    DNF_TRUE,
    TRUE_CONJ,
    ConstraintConj,
    LinConstraint,
    Var,
    _drop_redundant,
    conj_and,
    entails,
    make_conj,
    make_constraint,
    make_dnf,
    project,
    rename_conj,
    satisfiable,
    subtract,
)
from chcprecond.parser import parse_program
from chcprecond.precond import extract_swp, prune_disjuncts
from chcprecond.qa import answer_pred

CORPUS = Path(__file__).parent / "corpus"

# the benchmark's derivation search, which calls neither `linarith` nor
# `simplex`; `bench/` is not a package, so it is loaded by path
_ORACLE_SPEC = importlib.util.spec_from_file_location(
    "bench_oracle", Path(__file__).resolve().parents[1] / "bench" / "oracle.py"
)
oracle = importlib.util.module_from_spec(_ORACLE_SPEC)
_ORACLE_SPEC.loader.exec_module(oracle)


def load(name: str) -> Program:
    return parse_program((CORPUS / name).read_text())


def corpus_files() -> list[str]:
    return sorted(f.name for f in CORPUS.glob("*.chc"))


def with_answer_goal(qa: Program) -> Program:
    """A QA program plus the goal clause `false :- false#a`.

    Its goal trees are the derivations of `false#a` under one more node.
    """
    goal = Clause("answer_goal", None, TRUE_CONJ, (Atom(answer_pred(FALSE_PRED), ()),))
    return qa.with_clauses((*qa.clauses, goal))


def _fixture_texts(name: str) -> list[str]:
    text = (Path(__file__).parent / "fixtures" / name).read_text()
    return [t + "\n" for t in text.strip().split("\n\n")]


def gen_multivar_texts() -> list[str]:
    """The sixteen programs of `bench/gen.py --seed 1 --count 16`."""
    return _fixture_texts("gen_multivar_seed1.txt")


def gen_twoloop_texts() -> list[str]:
    """The twelve programs of `bench/gen.py --seed 1 --count 12 --loops 2`."""
    return _fixture_texts("gen_twoloop_seed1.txt")


# -- point evaluation ------------------------------------------------------------
#
# Evaluates the canonical form sum(coeffs) + const REL 0 directly, so it
# works for Fractions as well as ints and shares no code with the solver.


def holds(k: LinConstraint, point: Mapping[Var, object]) -> bool:
    total = sum(c * point[v] for v, c in k.coeffs) + k.const
    return total == 0 if k.rel == "=" else total <= 0


def holds_conj(c: ConstraintConj, point: Mapping[Var, object]) -> bool:
    return all(holds(k, point) for k in c.constraints)


def holds_dnf(d: DNF, point: Mapping[Var, object]) -> bool:
    return any(holds_conj(c, point) for c in d)


def grid(vars: Sequence[Var], lo: int, hi: int) -> Iterator[dict[Var, int]]:
    for values in itertools.product(range(lo, hi + 1), repeat=len(vars)):
        yield dict(zip(vars, values))


def dnf_points(d: DNF, vars: Sequence[Var], lo: int, hi: int) -> set[tuple[int, ...]]:
    return {
        tuple(pt[v] for v in vars) for pt in grid(vars, lo, hi) if holds_dnf(d, pt)
    }


# -- skeleton language -----------------------------------------------------------


def _compositions(total: int, k: int) -> Iterator[tuple[int, ...]]:
    """Tuples of k positive integers summing to total."""
    if k == 0:
        if total == 0:
            yield ()
        return
    for first in range(1, total - k + 2):
        for rest in _compositions(total - first, k - 1):
            yield (first,) + rest


def skeleton_language(p: Program, max_nodes: int) -> set[str]:
    """All complete derivation skeletons for false, as trace terms.

    Written as a direct recursion over clause identifiers with its own term
    printer, to cross-check both the derivation enumerator and trace
    elimination.
    """

    @lru_cache(maxsize=None)
    def for_pred(pred: Pred, n: int) -> tuple[str, ...]:
        out = []
        for cl in p.clauses:
            if cl.head_pred() != pred or len(cl.body) > n - 1:
                continue
            for split in _compositions(n - 1, len(cl.body)):
                parts = [for_pred(a.pred, sz) for a, sz in zip(cl.body, split)]
                for kids in itertools.product(*parts):
                    out.append(
                        f"{cl.cid}({','.join(kids)})" if kids else cl.cid
                    )
        return tuple(out)

    terms: set[str] = set()
    for n in range(1, max_nodes + 1):
        terms.update(for_pred(FALSE_PRED, n))
    return terms


# -- clause comparison -----------------------------------------------------------


def observable_constr(cl: Clause) -> tuple[list[Var], ConstraintConj]:
    """Clause constraint projected onto head and body arguments, in order."""
    args: list[Var] = []
    if cl.head is not None:
        args.extend(cl.head.args)
    for a in cl.body:
        args.extend(a.args)
    # repeated variables across atoms stay repeated; projection keys on the set
    return args, project(cl.constr, args)


def clauses_equivalent(
    got: Clause, want: Clause, name_map: Optional[Mapping[str, str]] = None
) -> bool:
    """Same shape and equivalent visible constraints.

    `name_map` translates predicate names of `got` before comparing, for
    outputs whose versions are named differently from a reference.
    """
    mapping = name_map or {}

    def pred_of(pred: Pred) -> Pred:
        return Pred(mapping.get(pred.name, pred.name), pred.arity)

    if (got.head is None) != (want.head is None):
        return False
    if got.head is not None and pred_of(got.head.pred) != want.head.pred:
        return False
    if len(got.body) != len(want.body):
        return False
    for ga, wa in zip(got.body, want.body):
        if pred_of(ga.pred) != wa.pred:
            return False
    g_args, g_constr = observable_constr(got)
    w_args, w_constr = observable_constr(want)
    if len(g_args) != len(w_args):
        return False
    return equiv_conj(_positional(g_args, g_constr), _positional(w_args, w_constr))


def _positional(args: Sequence[Var], constr: ConstraintConj) -> ConstraintConj:
    """Rename argument i to $cmp{i}; shared variables become equalities."""
    ren: dict[Var, Var] = {}
    eqs = []
    for i, v in enumerate(args):
        slot = Var(f"$cmp{i}")
        if v in ren:
            eqs.append(make_constraint({ren[v]: 1, slot: -1}, 0, "="))
        else:
            ren[v] = slot
    return conj_and(rename_conj(constr, ren), make_conj(eqs))


def programs_equivalent(
    got: Program,
    want: Program,
    name_map: Optional[Mapping[str, str]] = None,
) -> bool:
    """Clause-wise equivalence up to clause order and predicate renaming."""
    if len(got.clauses) != len(want.clauses):
        return False
    remaining = list(want.clauses)
    for g in got.clauses:
        for i, w in enumerate(remaining):
            if clauses_equivalent(g, w, name_map):
                del remaining[i]
                break
        else:
            return False
    return True


# -- conveniences ---------------------------------------------------------------


def conj_from(pairs: Iterable[tuple[dict[Var, int], int, str]]) -> ConstraintConj:
    return make_conj(make_constraint(c, const, rel) for c, const, rel in pairs)


def equiv_conj(a: ConstraintConj, b: ConstraintConj) -> bool:
    return entails(a, b) and entails(b, a)


def dnf_of_conj(c: ConstraintConj) -> DNF:
    return make_dnf((c,))


def feasible(t: AndTree) -> bool:
    """Whether the constraints of every node of `t` have a rational model."""
    return satisfiable(constr_of(t))


def swp_minus_thetas(p: Program, thetas: Iterable[ConstraintConj]) -> DNF:
    """A round's precondition computed the second way: the program's swp,
    then each theta subtracted in turn, then `final_precondition`'s cleanup.

    The reference that `final_precondition` of the round's excluded states
    must print the same as (`tests/test_round_premise.py`).
    """
    out = extract_swp(p).disjuncts
    for theta in thetas:
        out = make_dnf(subtract(out, theta)).disjuncts
    return prune_disjuncts(make_dnf(_drop_redundant(c) for c in out))


def parse_dnf(text: str) -> DNF:
    """A printed precondition read back through the parser.

    Each disjunct becomes one initial fact over the text's variables, so the
    program's initial condition is the DNF the text prints.
    """
    if text in ("true", "false"):
        return DNF_TRUE if text == "true" else DNF_FALSE
    names = ",".join(sorted(set(re.findall(r"\b[A-Z]\w*", text))))
    arity = names.count(",") + 1
    facts = "".join(f"p({names}) :- {d.strip('()')}.\n" for d in text.split(" ; "))
    program = parse_program(f":- initial(p/{arity}).\n{facts}false :- p({names}).\n")
    return initial_constraint_dnf(program)
