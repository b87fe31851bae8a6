"""Safe preconditions on the initial states.

The precondition read off a specialised program is the negated disjunction
of its initial facts' constraints.  Eliminating a feasible trace adds a
side condition: the negation of what that trace demanded of the initial
state.  The two parts are kept separate until the end, so the distribution
into disjunctive normal form happens once.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .core import Program, initial_constraint_dnf
from .linarith import (
    DNF,
    DNF_FALSE,
    ConstraintConj,
    dnf_and,
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
    # beyond make_dnf's syntactic absorption: fig1's output would keep ~2x the disjuncts
    kept = list(d)
    out: list[ConstraintConj] = []
    for i, c in enumerate(kept):
        if any(entails(c, e) for e in out) or any(
            entails(c, e) for e in kept[i + 1 :]
        ):
            continue
        out.append(c)
    return make_dnf(out)


def final_precondition(p_m: Program, psis: Iterable[DNF]) -> DNF:
    """swp of the last program conjoined with the side conditions, simplified.

    `psis` holds one negated projection per feasible trace removed; their
    conjunction is the psi of the iteration scheme.
    """
    out = extract_swp(p_m)
    for psi in psis:
        out = dnf_and(out, psi)
    return prune_disjuncts(out)


def classify(derived: DNF, original: Optional[DNF] = None) -> str:
    """Relate the derived precondition to the original initial condition.

    trivial when the derived condition is unsatisfiable; more-general when
    an original condition is known and every state satisfying it is covered;
    non-trivial otherwise.  Integer checks run under a node budget, and an
    exhausted budget is reported as undecided rather than guessed.
    """
    try:
        if equiv_dnf(derived, DNF_FALSE):
            return "trivial"
        if original is not None and implies_dnf(original, derived):
            return "more-general"
        return "non-trivial"
    except Undecided:
        warn("classification undecided: integer check budget exhausted")
        return "undecided"
