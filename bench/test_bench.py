"""Checks of the benchmark's own oracle and generator.

    python3 -m pytest -q bench
"""

import itertools

import workloads

workloads.use_checkout_src()

from chcprecond import parse_program  # noqa: E402

import gen  # noqa: E402
from oracle import DerivationSearch  # noqa: E402


def _corpus(name: str):
    return parse_program((workloads.CORPUS / f"{name}.chc").read_text())


def test_counter_loop_unsafe_at_zero_and_safe_below():
    search = DerivationSearch(_corpus("counter_loop"), depth=8, window=8)
    assert search.reaches_false((0,))
    assert search.reaches_false((3,))
    assert not search.reaches_false((-1,))


def test_depth_bounds_the_search():
    # from A = 5 the goal needs five loop steps: a derivation of height 8
    program = _corpus("counter_loop")
    assert not DerivationSearch(program, depth=7, window=8).reaches_false((5,))
    assert DerivationSearch(program, depth=8, window=8).reaches_false((5,))


def test_fig1_matches_closed_form():
    # unsafe exactly when B = 2*|A - 100|; from |A - 100| = k the
    # derivation has height k + 4, so depth 12 covers the box
    search = DerivationSearch(_corpus("fig1"), depth=12, window=200)
    for a, b in itertools.product(range(94, 107), range(-2, 15)):
        assert search.reaches_false((a, b)) == (b == 2 * abs(a - 100)), (a, b)


def test_generator_is_deterministic_per_seed():
    first = gen.programs(3, 6)
    assert gen.programs(3, 6) == first
    assert gen.programs(4, 6) != first
    for text in first:
        assert parse_program(text).init_args
