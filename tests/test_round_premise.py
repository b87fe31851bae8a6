"""The premise of the driver's stop rule, checked on every program at hand.

The driver ends a run at the first round whose precondition is integer
equivalent (`equiv_dnf`) to the round before's.  That gives up nothing only
if a round that leaves the precondition unchanged is never followed by one
that changes it.  A round loop written here, with no stop rule, calls pe,
cs, the counterexample search and trace elimination directly for
`ROUNDS` rounds, and reads every round's precondition.  For each corpus
program, each of the sixteen gen-multivar draws and each of the twelve
two-loop draws of `tests/test_twoloop.py` it checks that:

- every round's precondition, the complement of the initial states it
  excludes (`final_precondition`), prints the same as the last program's
  swp minus each theta in turn (`helpers.swp_minus_thetas`);
- no unchanged round is followed by a changing one;
- the driver's run, stopped or not, reports a precondition integer
  equivalent to the full loop's last one.

All 38 programs take about 4 s on a 2-CPU x86_64 machine, the loop
and the driver's runs together.
"""

import pytest

from chcprecond.core import initial_constraint_dnf
from chcprecond.cs import constraint_specialise
from chcprecond.derivation import find_counterexample
from chcprecond.driver import PipelineConfig, run_pipeline
from chcprecond.linarith import DNF, RUN, Run, equiv_dnf
from chcprecond.parser import parse_program
from chcprecond.pe import pe_run
from chcprecond.precond import final_precondition
from chcprecond.te import eliminate_trace

from helpers import corpus_files, gen_multivar_texts, gen_twoloop_texts, load, swp_minus_thetas

# the corpus default; 3 of the 38 programs still change in round 3
ROUNDS = 3
MAX_CEX_NODES = PipelineConfig().max_cex_nodes

PROGRAMS = {name: lambda name=name: load(name) for name in corpus_files()}
PROGRAMS.update(
    {f"gen-multivar {i}": lambda t=t: parse_program(t) for i, t in enumerate(gen_multivar_texts())}
)
PROGRAMS.update(
    {f"two-loop {i}": lambda t=t: parse_program(t) for i, t in enumerate(gen_twoloop_texts())}
)


def precondition(p, thetas):
    """The complement of what a round excludes, checked against the reference."""
    pre = final_precondition(DNF((*initial_constraint_dnf(p), *thetas)))
    assert str(pre) == str(swp_minus_thetas(p, thetas))
    return pre


def every_round(p):
    """The precondition after rounds 0, 1, ..., up to `ROUNDS` or no counterexample."""
    cur = constraint_specialise(pe_run(p).program).program
    thetas = []
    pres = [precondition(cur, thetas)]
    for _ in range(ROUNDS):
        cex = find_counterexample(cur, MAX_CEX_NODES)
        if cex is None:
            break
        cur, theta = eliminate_trace(cur, cex[0].trace())
        if theta is not None:
            thetas.append(theta)
        cur = constraint_specialise(pe_run(cur).program).program
        pres.append(precondition(cur, thetas))
    return pres


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_an_unchanged_round_is_never_followed_by_a_changing_one(name):
    p = PROGRAMS[name]()
    token = RUN.set(Run())
    try:
        pres = every_round(p)
        changed = [not equiv_dnf(now, before) for before, now in zip(pres, pres[1:])]
    finally:
        RUN.reset(token)
    assert not any(not a and b for a, b in zip(changed, changed[1:])), changed

    r = run_pipeline(p, PipelineConfig(iterations=ROUNDS))
    assert equiv_dnf(r.precondition, pres[-1])
    # the run stops at the first unchanged round, and only there
    first_unchanged = changed.index(False) + 1 if False in changed else None
    if first_unchanged is not None and first_unchanged < ROUNDS:
        assert r.stop == "unchanged"
        assert r.iterations_used == first_unchanged
    else:
        assert r.stop != "unchanged"
        assert r.iterations_used == len(pres) - 1
