"""Golden precondition texts.

The reported precondition is pinned byte for byte, so a change that only
speeds up the algebra underneath cannot alter what a user reads.  The
texts were produced before the precondition layer was optimised.
"""

import pytest

from chcprecond.driver import PipelineConfig, run_pipeline

from helpers import load

FIG1_AT_3 = (
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

FIG1_AT_4 = (
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

# every corpus program at the default settings
AT_DEFAULTS = {
    "already_safe.chc": "true",
    "branch_split.chc": "(A >= 6, A >= 36) ; (A >= 6, A =< 34) ; (A =< 34, A =< 4)",
    "chain_skip.chc": "A >= -9, A =< 9",
    "counter_loop.chc": "A =< 3, A =< 2, A =< 1, A =< 0, A =< -1",
    "cs_example.chc": "(A - B >= 1) ; (A =< -1) ; (A - B =< -1)",
    "example_t4.chc": "A + B - 3*N = 0, I - N >= 0",
    "example_t4_cs0.chc": "A - D >= 0, B + C - 3*D = 0",
    "fig1.chc": FIG1_AT_3,
    "no_safe_states.chc": "false",
    "two_inits.chc": "(A >= 1) ; (A =< -1)",
}


@pytest.mark.parametrize("name", sorted(AT_DEFAULTS))
def test_corpus_precondition_text(name):
    assert str(run_pipeline(load(name)).precondition) == AT_DEFAULTS[name]


def test_fig1_at_four_iterations_text():
    r = run_pipeline(load("fig1.chc"), PipelineConfig(iterations=4))
    assert r.iterations_used == 4
    assert str(r.precondition) == FIG1_AT_4
