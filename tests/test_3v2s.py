"""A three-variable, two-stage program at one iteration, checked by an independent oracle.

The program is draw 3 of the "3v2s" shape that ROADMAP.md describes: an
initial predicate, two loop stages `q0` and `q1`, each entered by two
guarded clauses from the stage before and left alone by two self-loops,
and a goal on `q1`.  Its complement once grew past `NEGATION_CAP` and was
truncated 22 times.  A child interpreter runs it, so a run that does not
end fails the test instead of hanging the suite.  Every accepted point of
the box -4..4 x -4..4 x -4..4 is then checked with the benchmark's
derivation search (`bench/oracle.py`, depth 10, window 8), which calls
neither `linarith` nor `simplex`.
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chcprecond
from chcprecond.linarith import NEGATION_CAP, Var
from chcprecond.parser import parse_program

from helpers import oracle, parse_dnf

DRAW_3 = """\
:- initial(init/3).
c1. init(A,B,C) :- A >= -1.
c2. q0(A,B,C) :- C0 - A0 >= 2, A = A0 - 1, B = B0 + 2, C = C0 - 2, init(A0,B0,C0).
c3. q0(A,B,C) :- B0 - C0 >= 0, A = A0 - 2, B = B0 + 0, C = C0 - 1, init(A0,B0,C0).
c4. q0(A,B,C) :- A0 >= 1, A = A0, B = B0 - 2, C = C0, q0(A0,B0,C0).
c5. q0(A,B,C) :- B0 >= 1, A = A0, B = B0, C = C0 - 1, q0(A0,B0,C0).
c6. q1(A,B,C) :- A0 >= 0, A = A0 + 1, B = B0 - 1, C = C0 + 0, q0(A0,B0,C0).
c7. q1(A,B,C) :- A0 =< 2, A = A0 + 2, B = B0 - 1, C = C0 + 1, q0(A0,B0,C0).
c8. q1(A,B,C) :- A0 - C0 >= 0, A = A0 - 2, B = B0, C = C0, q1(A0,B0,C0).
c9. q1(A,B,C) :- B0 >= 0, A = A0 + 1, B = B0 - 1, C = C0, q1(A0,B0,C0).
c10. false :- A + B = 0, C =< 0, q1(A,B,C).
"""

# seconds for the run; it takes under 1 s on a 2-CPU x86_64 machine.  It
# took about 2.5 s when every complement split a piece that missed what it
# took away, and about 21 s when the complement absorbed only at its end
BOUND = 20.0

SCRIPT = """
import json, sys, time
from chcprecond.driver import PipelineConfig, run_pipeline
from chcprecond.parser import parse_program
t0 = time.perf_counter()
r = run_pipeline(parse_program(sys.argv[1]), PipelineConfig(iterations=1))
print(json.dumps([time.perf_counter() - t0, str(r.precondition), list(r.warnings)]))
"""


@pytest.fixture(scope="module")
def run():
    src = str(Path(chcprecond.__file__).resolve().parents[1])
    try:
        out = subprocess.run(
            [sys.executable, "-c", SCRIPT, DRAW_3],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
            timeout=BOUND,
        ).stdout
    except subprocess.TimeoutExpired:
        pytest.fail(f"draw 3 did not finish in {BOUND} s")
    return json.loads(out)


def test_the_complement_is_never_truncated(run):
    _, _, warnings = run
    assert not [w for w in warnings if f"exceeded {NEGATION_CAP}" in w], warnings


BOX = list(itertools.product(range(-4, 5), repeat=3))


def test_every_accepted_point_is_safe(run):
    pre = parse_dnf(run[1])
    vs = (Var("A"), Var("B"), Var("C"))
    accepted = [pt for pt in BOX if oracle.holds_dnf(pre, dict(zip(vs, pt)))]
    # 469 of the 729 points when this test was written, 91 while truncated
    assert len(accepted) >= 469
    program = parse_program(DRAW_3)
    assert program.init_args == vs
    search = oracle.DerivationSearch(program, depth=10, window=8)
    for pt in accepted:
        assert not search.reaches_false(pt), pt
