"""Safe preconditions on the initial states.

A round excludes the initial states of its program's initial facts, and
eliminating a feasible trace excludes one more set: `theta`, what that
trace demanded of the initial state.  The precondition is the integer
complement of everything excluded (`final_precondition`).  `extract_swp`
complements one program's initial facts alone, without the side
conditions; the run does not call it.
Every complement here is `linarith.negate_dnf`'s, which subtracts one
excluded set at a time: a piece that misses what is taken away stays
whole, and only a piece that meets it is split.
"""

from __future__ import annotations

from .core import Program, initial_constraint_dnf
from .linarith import (
    DNF,
    DNF_FALSE,
    ConstraintConj,
    _drop_redundant,
    entails,
    equiv_dnf,
    implies_dnf,
    make_dnf,
    negate_dnf,
    warn,
)
from .simplex import Undecided


def extract_swp(p: Program) -> DNF:
    """Negated disjunction of the initial facts' constraints.

    Every version of the initial predicate contributes one disjunct over
    the declared initial arguments (`core.initial_constraint_dnf`).  A
    program with no initial facts left admits no derivation through an
    initial state at all, and the precondition is true.
    """
    return negate_dnf(initial_constraint_dnf(p))


def prune_disjuncts(d: DNF) -> DNF:
    """Drop disjuncts entailed by another disjunct; of equivalent pairs one stays."""
    # beyond make_dnf's syntactic absorption: fig1 would end with 14
    # disjuncts instead of 9 at 3 iterations, and 17 instead of 11 at 4
    kept = list(d)
    out: list[ConstraintConj] = []
    for i, c in enumerate(kept):
        if any(entails(c, e) for e in out) or any(
            entails(c, e) for e in kept[i + 1 :]
        ):
            continue
        out.append(c)
    return make_dnf(out)


def final_precondition(excluded: DNF) -> DNF:
    """The integer complement of the excluded initial states, simplified.

    `excluded` is a round's: its program's initial facts, in
    `core.initial_constraint_dnf`'s order, then one `theta` per feasible
    trace eliminated, in elimination order.  `negate_dnf` subtracts them
    from true in that order, so the facts' complement is the program's
    `extract_swp`.  Then every disjunct loses the constraints the rest of
    it implies, and `prune_disjuncts` drops whole disjuncts.
    """
    out = negate_dnf(excluded)
    return prune_disjuncts(make_dnf(_drop_redundant(c) for c in out))


def classify(derived: DNF, original: DNF) -> str:
    """Relate the derived precondition to the original initial condition.

    trivial when the derived condition is unsatisfiable; more-general when
    every state satisfying the original condition is covered; non-trivial
    otherwise.  Integer checks run under a node budget, and an exhausted
    budget is reported as undecided rather than guessed.
    """
    try:
        if equiv_dnf(derived, DNF_FALSE):
            return "trivial"
        if implies_dnf(original, derived):
            return "more-general"
        return "non-trivial"
    except Undecided:
        warn("classification undecided: integer check budget exhausted")
        return "undecided"
