"""Golden precondition texts.

The reported precondition is pinned byte for byte, so a change that only
speeds up the algebra underneath cannot alter what a user reads.  A text
may change only to an integer-equivalent one: the text it replaces is kept
as a `BEFORE_*` entry, and `equiv_dnf` must hold between the two.  A text
replaced once more moves on to an `OLDER_*` entry, and one replaced twice
more to an `OLDEST_*` entry; each must stay equivalent to the pinned one.
"""

import pytest

from chcprecond.driver import PipelineConfig, run_pipeline
from chcprecond.linarith import equiv_dnf

from helpers import load, parse_dnf

# the texts before conjunctions kept one interval per coefficient row
OLDEST_FIG1_AT_3 = (
    "(2*A + B >= 201, 2*A - B >= 201, A >= 101) ; "
    "(2*A + B >= 201, 2*A - B =< 199, B >= 1) ; "
    "(A >= 101, B =< 7, B =< 5, B =< 3, B =< 1) ; "
    "(A =< 99, 2*A - B =< 199, 2*A + B =< 199) ; "
    "(A =< 99, B =< 7, B =< 5, B =< 3, B =< 1) ; "
    "(B >= 1, B >= 3, B >= 5, B = 7) ; "
    "(B >= 1, B >= 3, B =< 7, B =< 5, B = 3) ; "
    "(B >= 1, B >= 3, B =< 7, B = 5) ; "
    "(B =< 7, B =< 5, B =< 3, B =< 1, B = 1) ; "
    "(B =< 7, B =< 5, B =< 3, B =< 1, B =< -1)"
)

OLDEST_FIG1_AT_4 = (
    "(2*A + B >= 201, 2*A - B >= 201, A >= 101) ; "
    "(2*A + B >= 201, 2*A - B =< 199, B >= 1) ; "
    "(A >= 101, B =< 9, B =< 7, B =< 5, B =< 3, B =< 1) ; "
    "(A =< 99, 2*A - B =< 199, 2*A + B =< 199) ; "
    "(A =< 99, B =< 9, B =< 7, B =< 5, B =< 3, B =< 1) ; "
    "(B >= 1, B >= 3, B >= 5, B >= 7, B = 9) ; "
    "(B >= 1, B >= 3, B >= 5, B =< 9, B =< 7, B = 5) ; "
    "(B >= 1, B >= 3, B >= 5, B =< 9, B = 7) ; "
    "(B >= 1, B =< 9, B =< 7, B =< 5, B = 3) ; "
    "(B =< 9, B =< 7, B =< 5, B =< 3, B =< 1, B = 1) ; "
    "(B =< 9, B =< 7, B =< 5, B =< 3, B =< 1, B =< -1)"
)

# the texts before a piece that misses a trace's theta stayed whole, and
# before each final disjunct dropped its redundant constraints
OLDER_FIG1_AT_3 = (
    "(2*A + B >= 201, 2*A - B >= 201, A >= 101) ; "
    "(2*A + B >= 201, 2*A - B =< 199, B >= 1) ; "
    "(A >= 101, B =< 1) ; "
    "(A =< 99, 2*A - B =< 199, 2*A + B =< 199) ; "
    "(A =< 99, B =< 1) ; "
    "(B = 7) ; (B = 5) ; (B = 3) ; (B = 1) ; (B =< -1)"
)

OLDER_FIG1_AT_4 = (
    "(2*A + B >= 201, 2*A - B >= 201, A >= 101) ; "
    "(2*A + B >= 201, 2*A - B =< 199, B >= 1) ; "
    "(A >= 101, B =< 1) ; "
    "(A =< 99, 2*A - B =< 199, 2*A + B =< 199) ; "
    "(A =< 99, B =< 1) ; "
    "(B = 9) ; (B = 7) ; (B = 5) ; (B = 3) ; (B = 1) ; (B =< -1)"
)

# the texts before a run stopped at a round that left the precondition
# unchanged; fig1's is the same integer set at every round
BEFORE_FIG1_AT_3 = (
    "(2*A + B >= 201, 2*A - B =< 199) ; "
    "(2*A - B >= 201) ; "
    "(A =< 99, 2*A + B =< 199, B =< 3) ; "
    "(2*A - B =< 199, 2*A + B =< 199) ; "
    "(B = 7) ; (B = 5) ; (B = 3) ; (B = 1) ; (B =< -1)"
)

BEFORE_FIG1_AT_4 = (
    "(2*A + B >= 201, 2*A - B =< 199) ; "
    "(2*A + B >= 201, B =< 1) ; "
    "(2*A - B >= 201) ; "
    "(2*A - B =< 199, 2*A + B =< 199) ; "
    "(2*A + B =< 199, B =< 5) ; "
    "(B = 9) ; (B = 7) ; (B = 5) ; (B = 3) ; (B = 1) ; (B =< -1)"
)

BEFORE_AT_DEFAULTS = {
    "branch_split.chc": "(A >= 6, A >= 36) ; (A >= 6, A =< 34) ; (A =< 34, A =< 4)",
    "counter_loop.chc": "A =< 3, A =< 2, A =< 1, A =< 0, A =< -1",
    "fig1.chc": BEFORE_FIG1_AT_3,
}

# fig1 stops after round 1 at 3 and at 4 iterations: round 2 leaves the
# precondition unchanged
FIG1_AT_1 = (
    "(2*A + B >= 201, 2*A - B =< 199) ; "
    "(2*A - B >= 201) ; "
    "(A =< 99, B =< 1) ; "
    "(2*A - B =< 199, 2*A + B =< 199) ; "
    "(B = 1) ; (B =< -1)"
)

# every corpus program at the default settings
AT_DEFAULTS = {
    "already_safe.chc": "true",
    "branch_split.chc": "(A >= 6, A =< 34) ; (A >= 36) ; (A =< 4)",
    "chain_skip.chc": "A >= -9, A =< 9",
    "counter_loop.chc": "A =< -1",
    "cs_example.chc": "(A - B >= 1) ; (A =< -1) ; (A - B =< -1)",
    "example_t4.chc": "A + B - 3*N = 0, I - N >= 0",
    "example_t4_cs0.chc": "A - D >= 0, B + C - 3*D = 0",
    "fig1.chc": FIG1_AT_1,
    "no_safe_states.chc": "false",
    "two_inits.chc": "(A >= 1) ; (A =< -1)",
}


@pytest.mark.parametrize("name", sorted(AT_DEFAULTS))
def test_corpus_precondition_text(name):
    assert str(run_pipeline(load(name)).precondition) == AT_DEFAULTS[name]


def test_fig1_at_four_iterations_text():
    r = run_pipeline(load("fig1.chc"), PipelineConfig(iterations=4))
    assert r.iterations_used == 1
    assert str(r.precondition) == FIG1_AT_1


# each changed text against the one it replaced
CHANGED = {name: (BEFORE_AT_DEFAULTS[name], AT_DEFAULTS[name]) for name in BEFORE_AT_DEFAULTS}
CHANGED["fig1.chc at 4 iterations"] = (BEFORE_FIG1_AT_4, FIG1_AT_1)
# each text replaced more than once, oldest first, against the pinned one
OLDER = {
    "fig1.chc": ((OLDEST_FIG1_AT_3, OLDER_FIG1_AT_3), FIG1_AT_1),
    "fig1.chc at 4 iterations": ((OLDEST_FIG1_AT_4, OLDER_FIG1_AT_4), FIG1_AT_1),
}


@pytest.mark.parametrize("name", sorted(CHANGED))
def test_changed_text_is_integer_equivalent_to_the_one_before(name):
    before, now = CHANGED[name]
    assert before != now
    assert equiv_dnf(parse_dnf(before), parse_dnf(now))


@pytest.mark.parametrize("name", sorted(OLDER))
def test_older_text_is_integer_equivalent_to_the_current_one(name):
    olders, now = OLDER[name]
    for older in olders:
        assert older != now
        assert equiv_dnf(parse_dnf(older), parse_dnf(now))
