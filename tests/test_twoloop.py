"""The generator's two-loop shape at one iteration, checked by an independent oracle.

`fixtures/gen_twoloop_seed1.txt` holds the twelve programs that
`python3 bench/gen.py --seed 1 --count 12 --loops 2` prints.  A child
interpreter runs all twelve, so a run that does not end fails the test
instead of hanging the suite; draw 11, whose convex hulls once grew for
minutes, also has a time bound of its own.  Every accepted point of the box
-6..6 x -6..6 is then checked with the benchmark's derivation search
(`bench/oracle.py`, depth 16, window 16), which calls neither `linarith`
nor `simplex`.  Draw 11 also runs in this process, so that `implies_dnf`
can compare one of its intermediate preconditions with an older form.
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chcprecond
from chcprecond.core import initial_constraint_dnf
from chcprecond.driver import PipelineConfig, run_pipeline
from chcprecond.linarith import (
    TRUE_CONJ,
    Var,
    conj_and,
    equiv_dnf,
    implies_dnf,
    make_dnf,
    negate_conj,
    satisfiable,
)
from chcprecond.parser import parse_program
from chcprecond.precond import extract_swp

from helpers import gen_twoloop_texts, oracle, parse_dnf

# seconds for all twelve programs, and for draw 11 alone; both run in well
# under a second on a 2-CPU x86_64 machine
ALL_BOUND = 60.0
DRAW_11_BOUND = 10.0

SCRIPT = """
import json, sys, time
from chcprecond.driver import PipelineConfig, run_pipeline
from chcprecond.parser import parse_program
for text in sys.argv[1:]:
    t0 = time.perf_counter()
    r = run_pipeline(parse_program(text), PipelineConfig(iterations=1))
    print(json.dumps([time.perf_counter() - t0, str(r.precondition)]), flush=True)
"""


@pytest.fixture(scope="module")
def runs():
    src = str(Path(chcprecond.__file__).resolve().parents[1])
    try:
        out = subprocess.run(
            [sys.executable, "-c", SCRIPT, *gen_twoloop_texts()],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
            timeout=ALL_BOUND,
        ).stdout
    except subprocess.TimeoutExpired as e:
        done = len((e.stdout or b"").splitlines())
        pytest.fail(f"{done} of the twelve two-loop programs finished in {ALL_BOUND} s")
    return [json.loads(line) for line in out.splitlines()]


def test_all_twelve_draws_finish(runs):
    assert len(runs) == len(gen_twoloop_texts()) == 12


def test_draw_eleven_stays_within_its_bound(runs):
    seconds, _ = runs[11]
    assert seconds < DRAW_11_BOUND


BOX = list(itertools.product(range(-6, 7), repeat=2))


def _accepted(runs, i):
    """The box points draw i's reported precondition accepts."""
    pre = parse_dnf(runs[i][1])
    a, b = Var("A"), Var("B")
    return [pt for pt in BOX if oracle.holds_dnf(pre, {a: pt[0], b: pt[1]})]


@pytest.mark.parametrize("i", range(12))
def test_every_accepted_point_is_safe(runs, i):
    program = parse_program(gen_twoloop_texts()[i])
    assert program.init_args == (Var("A"), Var("B"))
    search = oracle.DerivationSearch(program, depth=16, window=16)
    for pt in _accepted(runs, i):
        assert not search.reaches_false(pt), pt


def test_no_fewer_points_are_accepted(runs):
    # 1,639 of the 12 x 169 points when this shape joined the suite
    assert sum(len(_accepted(runs, i)) for i in range(12)) >= 1639


# draw 2's earlier texts, oldest first: before `negate_dnf` absorbed
# supersets after every step, and before a piece that misses a trace's theta
# stayed whole and each final disjunct dropped its redundant constraints
# (`A - B >= -2` beside `A >= 4` and `B =< 2`, which imply it)
OLDER_DRAW_2 = (
    "(A >= 4, A - B >= 2, B =< 2) ; (A - B >= 1, A =< 0, B =< -1) ; "
    "(A - B >= 2, B =< -1) ; (A =< -3, A - B =< -1) ; (A =< -3, B =< 2)"
)
BEFORE_DRAW_2 = (
    "(A >= 4, A - B >= -2, B =< 2) ; (A - B >= 1, A =< 0, B =< -1) ; "
    "(A - B >= 2, B =< -1) ; (A =< -3, A - B =< -1) ; (A =< -3, B =< 2)"
)
DRAW_2 = "(A >= 4, B =< 2) ; (A - B >= 1, A =< 0) ; (A - B >= 2, B =< -1) ; (A =< -3)"


def test_draw_two_text(runs):
    assert runs[2][1] == DRAW_2


def test_draw_two_is_integer_equivalent_to_its_text_before(runs):
    now = runs[2][1]
    for before in (OLDER_DRAW_2, BEFORE_DRAW_2):
        assert before != now
        assert equiv_dnf(parse_dnf(before), parse_dnf(now))


def _negate_absorbing_at_end(d):
    """`negate_dnf` as it was when it absorbed supersets only at its end."""
    acc = [TRUE_CONJ]
    for disjunct in d:
        neg = negate_conj(disjunct)
        acc = sorted({m for a in acc for piece in neg if satisfiable(m := conj_and(a, piece))})
    return make_dnf(acc)


def test_draw_eleven_swp_and_its_older_form_include_each_other():
    # the second pe step's swp once had 48 disjuncts; from one with 36,
    # `implies_dnf` spent the default budget in about 20 s and was undecided
    r = run_pipeline(parse_program(gen_twoloop_texts()[11]), PipelineConfig(iterations=1))
    program = [s for s in r.steps if s.label == "pe"][1].program
    now = extract_swp(program)
    older = _negate_absorbing_at_end(initial_constraint_dnf(program))
    assert len(older) == 48
    assert implies_dnf(now, older)
    assert implies_dnf(older, now)
