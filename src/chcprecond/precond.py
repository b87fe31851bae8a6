"""Safe preconditions on the initial states.

The precondition read off a specialised program is the negated disjunction
of its initial facts' constraints.  Eliminating a feasible trace adds a
side condition: the negation of what that trace demanded of the initial
state.  The two parts are kept separate until the end, so the distribution
into disjunctive normal form happens once.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

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
    negate_conj,
    negate_dnf,
)
from .simplex import Undecided

log = logging.getLogger(__name__)


@dataclass
class PrecondState:
    """Side conditions accumulated across trace eliminations.

    `psis` holds one negated projection per feasible trace removed so far;
    their conjunction is the psi of the iteration scheme.  `history` keeps
    one row per pipeline step for reporting: step kind, index of the
    program snapshot it produced, and the projected constraint when the
    step was a feasible-trace elimination.
    """

    psis: list[DNF] = field(default_factory=list)
    history: list[tuple[str, int, Optional[ConstraintConj]]] = field(
        default_factory=list
    )

    def record(
        self, kind: str, snapshot: int, theta: Optional[ConstraintConj] = None
    ) -> None:
        self.history.append((kind, snapshot, theta))
        if theta is not None:
            self.psis.append(negate_conj(theta))


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
    kept = list(d)
    out: list[ConstraintConj] = []
    for i, c in enumerate(kept):
        if any(entails(c, e) for e in out) or any(
            entails(c, e) for e in kept[i + 1 :]
        ):
            continue
        out.append(c)
    return make_dnf(out)


def final_precondition(s: PrecondState, p_m: Program) -> DNF:
    """swp of the last program conjoined with the accumulated psi, simplified."""
    out = extract_swp(p_m)
    for psi in s.psis:
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
        log.warning("classification undecided: integer check budget exhausted")
        return "undecided"
