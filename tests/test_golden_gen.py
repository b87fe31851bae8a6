"""Golden precondition texts for the generated two-variable programs.

The sixteen programs in `fixtures/gen_multivar_seed1.txt` are the ones
`python3 bench/gen.py --seed 1 --count 16` prints, separated by blank
lines; the benchmark's gen-multivar workload runs them at 1 iteration.
The texts are pinned byte for byte, so a kernel speed-up cannot alter
what a user reads.  A text may change only to an integer-equivalent one:
the text it replaces is kept in `BEFORE_AT_ONE_ITERATION`, and `equiv_dnf`
must hold between the two.  A text replaced once more joins the end of its
program's tuple in `OLDER_AT_ONE_ITERATION`, and each there must stay
equivalent to the pinned one.
"""

from pathlib import Path

import pytest

from chcprecond.driver import PipelineConfig, run_pipeline
from chcprecond.linarith import equiv_dnf
from chcprecond.parser import parse_program

from helpers import parse_dnf

FIXTURE = Path(__file__).parent / "fixtures" / "gen_multivar_seed1.txt"

# the texts before the pinned ones: for 5, 7, 9, 11 and 14, before a piece
# that misses a trace's theta stayed whole and each final disjunct dropped
# its redundant constraints; for 0, before constraint specialisation solved
# one component at a time; for the rest, before conjunctions kept one
# interval per coefficient row
BEFORE_AT_ONE_ITERATION = {
    0: (
        "(A =< -1, A + B =< -1) ; "
        "(B >= 0) ; "
        "(B =< -3)"
    ),
    1: (
        "(A - B >= 1, B =< 5, B =< 1) ; "
        "(A =< 1, B =< 5, B =< 1) ; "
        "(A - B =< -2)"
    ),
    5: (
        "(A >= -1, A - B =< 0, A + B =< 6) ; "
        "(A >= -1, A + B =< 4) ; "
        "(A >= -1, B =< 0) ; "
        "(A + B >= 0, A - B =< 0, A + B =< 6) ; "
        "(A + B >= 0, A - B =< 0, B >= 4) ; "
        "(A + B >= 0, A + B =< 4) ; "
        "(A + B >= 6, B >= 4) ; "
        "(A + B = 8) ; "
        "(A + B = 6) ; "
        "(A + B =< -2)"
    ),
    7: (
        "(A >= 2, A - B =< -1) ; "
        "(A >= 4, A - B =< 1) ; "
        "(A >= 5, A - B =< 3, B >= 4) ; "
        "(A >= 7, B >= 4) ; "
        "(A - B =< 1, B =< -2) ; "
        "(A - B =< -2) ; "
        "(B =< -3)"
    ),
    9: (
        "(A >= 2, A + B =< 7) ; "
        "(A >= 2, B =< 3) ; "
        "(A + B >= 7, A - B =< -1, B >= 7) ; "
        "(A + B >= 9, B >= 7) ; "
        "(A =< 0, A - B =< -1, B >= 7) ; "
        "(A =< 0, A + B =< 7) ; "
        "(A + B = 9) ; "
        "(A + B = 7) ; "
        "(A + B =< 5)"
    ),
    10: (
        "(A - B >= -4, A - B >= -3) ; "
        "(A =< 2, A =< 1)"
    ),
    11: (
        "(A + B >= -1, A = 5, B =< -2) ; "
        "(A + B >= -1, A =< 3, B =< -2) ; "
        "(A + B >= -1, B >= -3, B =< -2) ; "
        "(A + B >= 1, A = 4, B >= -3) ; "
        "(A + B >= 1, A =< 2) ; "
        "(A + B >= 1, B >= 0) ; "
        "(A =< 3, A + B =< -3, B =< -2) ; "
        "(A =< 2, A + B =< -1, B >= -1) ; "
        "(A =< 2, A + B = -1) ; "
        "(A =< 2, A + B =< -3) ; "
        "(B >= 2) ; "
        "(B =< -5)"
    ),
    13: (
        "(A - B >= -2, A - B >= -1, B =< 4, B =< 1) ; "
        "(A =< 3, A =< 2, A =< 0, A =< -1)"
    ),
    14: (
        "(A + B >= 1, A = 5, B =< -1) ; "
        "(A + B >= 1, A =< 3, B =< -1) ; "
        "(A + B >= 1, B >= 6) ; "
        "(A + B >= 1, B = -1) ; "
        "(A + B >= 2, A = 5) ; "
        "(A + B >= 2, B >= -1) ; "
        "(A =< 3, A - B =< -3, A + B =< 0) ; "
        "(A =< 3, A + B =< -1) ; "
        "(A - B =< -3, B >= 6) ; "
        "(B =< -3)"
    ),
    15: (
        "(A =< 1, A =< 0, A =< -1, A =< -4) ; "
        "(B =< 2, B =< -1)"
    ),
}

# the texts before those, oldest first: 11's second before constraint
# specialisation solved one component at a time, every other before
# conjunctions kept one interval per coefficient row
OLDER_AT_ONE_ITERATION = {
    0: (
        (
            "(A =< 1, A =< 0, A =< -1, A + B =< -1) ; "
            "(B >= -1, B >= 0) ; "
            "(B =< -2, B =< -3)"
        ),
    ),
    5: (
        (
            "(A >= -1, A - B =< 0, A + B =< 8, A + B =< 6) ; "
            "(A >= -1, A + B =< 8, A + B =< 6, A + B =< 4) ; "
            "(A >= -1, B =< 0) ; "
            "(A + B >= 0, A + B >= 6, A + B = 8) ; "
            "(A + B >= 0, A + B >= 6, B >= 4) ; "
            "(A + B >= 0, A - B =< 0, A + B =< 8, A + B =< 6) ; "
            "(A + B >= 0, A - B =< 0, B >= 4) ; "
            "(A + B >= 0, A + B =< 8, A + B =< 6, A + B =< 4) ; "
            "(A + B >= 0, A + B =< 8, A + B = 6) ; "
            "(A + B =< 8, A + B =< 6, A + B =< 4, A + B =< -2)"
        ),
    ),
    7: (
        (
            "(A >= 0, A >= 2, A >= 3, A >= 4, A >= 5, A >= 7, B >= 3, B >= 4) ; "
            "(A >= 0, A >= 2, A >= 3, A >= 4, A >= 5, A - B =< 3, B >= 3, B >= 4) ; "
            "(A >= 0, A >= 2, A >= 4, A - B =< 3, A - B =< 1, B >= 3) ; "
            "(A >= 0, A >= 2, A - B =< 3, A - B =< 1, A - B =< -1, B >= 3) ; "
            "(A - B =< 5, A - B =< 3, A - B =< 1, A - B =< -1, A - B =< -2) ; "
            "(A - B =< 5, A - B =< 3, A - B =< 1, B =< -2) ; "
            "(B =< -2, B =< -3)"
        ),
    ),
    9: (
        (
            "(A >= 2, A + B =< 9, A + B =< 7) ; "
            "(A >= 2, B =< 4, B =< 3) ; "
            "(A + B >= 7, A + B >= 9, A + B = 9) ; "
            "(A + B >= 7, A + B >= 9, B >= 6, B >= 7) ; "
            "(A + B >= 7, A - B =< -1, B >= 6, B >= 7) ; "
            "(A =< 0, A - B =< -1, B >= 6, B >= 7) ; "
            "(A =< 0, A + B =< 9, A + B =< 7) ; "
            "(A + B =< 9, A + B =< 7, A + B =< 5) ; "
            "(A + B =< 9, A + B = 7)"
        ),
    ),
    11: (
        (
            "(A >= 4, A + B >= -1, A + B >= 1, A = 5, A + 5*B =< -1) ; "
            "(A >= 4, A + B >= -1, A + B >= 1, A + 5*B =< -1, B >= -3) ; "
            "(A + B >= -1, A =< 5, A =< 3, B =< -2) ; "
            "(A + B >= -1, A = 5, B =< -2) ; "
            "(A + B >= -1, B >= -3, B =< -2) ; "
            "(A + B >= 1, A =< 2, A + 5*B =< -1, B >= -3, B >= -1) ; "
            "(A + B >= 1, B >= -3, B >= -1, B >= 0) ; "
            "(A =< 5, A =< 3, A =< 2, A + B =< -1, A + B =< -3, A + 5*B =< -1) ; "
            "(A =< 5, A =< 3, A + B =< -3, B =< -2) ; "
            "(A =< 2, A + B =< -1, A + 5*B =< -1, B >= -3, B >= -1) ; "
            "(A =< 2, A + B = -1, A + 5*B =< -1, B >= -3) ; "
            "(A + B =< -1, B >= -3, B >= -1, B >= 0) ; "
            "(B >= -3, B >= -1, B >= 0, B >= 2) ; "
            "(B =< -2, B =< -5)"
        ),
        (
            "(A >= 4, A + B >= 1, A + 5*B =< -1, B >= -3) ; "
            "(A + B >= -1, A = 5, B =< -2) ; "
            "(A + B >= -1, A =< 3, B =< -2) ; "
            "(A + B >= -1, B >= -3, B =< -2) ; "
            "(A + B >= 1, A = 5, A + 5*B =< -1) ; "
            "(A + B >= 1, A =< 2, A + 5*B =< -1) ; "
            "(A + B >= 1, B >= 0) ; "
            "(A =< 3, A + B =< -3, B =< -2) ; "
            "(A =< 2, A + B =< -1, A + 5*B =< -1, B >= -1) ; "
            "(A =< 2, A + B = -1, A + 5*B =< -1) ; "
            "(A =< 2, A + B =< -3, A + 5*B =< -1) ; "
            "(A + B =< -1, B >= 0) ; "
            "(B >= 2) ; "
            "(B =< -5)"
        ),
    ),
    14: (
        (
            "(A + B >= 1, A + B >= 2, A = 5) ; "
            "(A + B >= 1, A + B >= 2, B >= -1) ; "
            "(A + B >= 1, A =< 5, A =< 3, B =< -1) ; "
            "(A + B >= 1, A = 5, B =< -1) ; "
            "(A + B >= 1, B >= -1, B >= 6) ; "
            "(A + B >= 1, B = -1) ; "
            "(A =< 5, A =< 3, A - B =< -3, A + B =< 0) ; "
            "(A =< 5, A =< 3, A + B =< 0, A + B =< -1) ; "
            "(A - B =< -3, B >= -1, B >= 6) ; "
            "(B =< -1, B =< -3)"
        ),
    ),
}

AT_ONE_ITERATION = [
    (
        "(A =< -1) ; "
        "(B >= 0) ; "
        "(B =< -3)"
    ),
    (
        "(A - B >= 1, B =< 1) ; "
        "(A =< 1, B =< 1) ; "
        "(A - B =< -2)"
    ),
    "true",
    (
        "(A >= -1) ; "
        "(A - B >= 0)"
    ),
    (
        "(A + B >= 6) ; "
        "(A + B =< 4) ; "
        "(B >= 4) ; "
        "(B =< 2)"
    ),
    (
        "(A >= -1, A - B =< 0, A + B =< 8) ; "
        "(A >= -1, A + B =< 4) ; "
        "(A + B >= 0, A - B =< 0, A + B =< 8) ; "
        "(A + B >= 0, A + B =< 4) ; "
        "(A + B >= 0, B >= 4) ; "
        "(A + B = 8) ; "
        "(A + B = 6) ; "
        "(A + B =< -2) ; "
        "(B =< 0)"
    ),
    (
        "(A >= -1) ; "
        "(A =< -3) ; "
        "(B >= 3) ; "
        "(B =< 1)"
    ),
    (
        "(A >= 2, A - B =< -1) ; "
        "(A >= 4, A - B =< 1) ; "
        "(A >= 5, B >= 4) ; "
        "(A - B =< 1, B =< -2) ; "
        "(A - B =< -2) ; "
        "(B =< -3)"
    ),
    (
        "(A - B >= -3) ; "
        "(B >= 0) ; "
        "(B =< -4)"
    ),
    (
        "(A >= 2, A + B =< 7) ; "
        "(A =< 0, A + B =< 7) ; "
        "(A - B =< -1, B =< 4) ; "
        "(A + B = 9) ; "
        "(A + B = 7) ; "
        "(A + B =< 5) ; "
        "(B >= 7) ; "
        "(B =< 3)"
    ),
    (
        "(A - B >= -3) ; "
        "(A =< 1)"
    ),
    (
        "(A + B >= -1, A =< 3, B =< -2) ; "
        "(A + B >= -1, B >= -3, B =< -2) ; "
        "(A + B >= 1, A =< 2) ; "
        "(A + B >= 1, B >= 0) ; "
        "(A = 5, B =< -2) ; "
        "(A = 4, B >= -3) ; "
        "(A =< 3, A + B =< -3, B =< -2) ; "
        "(A =< 2, A + B = -1) ; "
        "(A =< 2, A + B =< -3) ; "
        "(A + B =< -1, B >= -1) ; "
        "(B >= 2) ; "
        "(B =< -5)"
    ),
    "true",
    (
        "(A - B >= -1, B =< 1) ; "
        "(A =< -1)"
    ),
    (
        "(A + B >= 1, A = 5) ; "
        "(A + B >= 1, A =< 3, B =< -1) ; "
        "(A + B >= 1, B >= 6) ; "
        "(A + B >= 1, B = -1) ; "
        "(A + B >= 2, B >= -1) ; "
        "(A =< 5, A + B =< -1) ; "
        "(A - B =< -3, A + B =< 0) ; "
        "(A - B =< -3, B >= 6) ; "
        "(B =< -3)"
    ),
    (
        "(A =< -4) ; "
        "(B =< -1)"
    ),
]

def _programs() -> list[str]:
    return [t + "\n" for t in FIXTURE.read_text().strip().split("\n\n")]


def test_fixture_holds_sixteen_programs():
    assert len(_programs()) == len(AT_ONE_ITERATION) == 16


@pytest.mark.parametrize("i", range(16))
def test_gen_multivar_precondition_text(i):
    r = run_pipeline(parse_program(_programs()[i]), PipelineConfig(iterations=1))
    assert str(r.precondition) == AT_ONE_ITERATION[i]


@pytest.mark.parametrize("i", sorted(BEFORE_AT_ONE_ITERATION))
def test_changed_text_is_integer_equivalent_to_the_one_before(i):
    before, now = BEFORE_AT_ONE_ITERATION[i], AT_ONE_ITERATION[i]
    assert before != now
    assert equiv_dnf(parse_dnf(before), parse_dnf(now))


@pytest.mark.parametrize("i", sorted(OLDER_AT_ONE_ITERATION))
def test_older_text_is_integer_equivalent_to_the_current_one(i):
    now = AT_ONE_ITERATION[i]
    for older in OLDER_AT_ONE_ITERATION[i]:
        assert older != now
        assert equiv_dnf(parse_dnf(older), parse_dnf(now))
