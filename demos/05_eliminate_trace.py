"""Remove one counterexample trace from a program's derivation language.

Each predicate is split into copies, one per set of trace nodes its
derivations can stand for; dropping the goal copies that can stand for the
whole trace yields a program with every other derivation intact.  The constraint the trace put on the initial state is
returned alongside, projected onto the declared initial arguments.
"""

from pathlib import Path

from chcprecond import eliminate_trace, find_counterexample, parse_program
from chcprecond.linarith import format_conj

CORPUS = Path(__file__).resolve().parents[1] / "tests" / "corpus"


def main() -> None:
    p = parse_program((CORPUS / "example_t4.chc").read_text())

    found = find_counterexample(p)
    assert found is not None and found[1], "expected a feasible counterexample"
    trace = found[0].trace()
    print(f"eliminating: {trace}")

    newp, theta = eliminate_trace(p, trace)
    print(f"the trace constrained the initial state to: {format_conj(theta)}")
    print(f"clauses before: {len(p.clauses)}, after: {len(newp.clauses)}")
    print(f"predicates before: {len(p.preds())}, after: {len(newp.preds())}")

    again = find_counterexample(newp)
    if again is None:
        print("no derivation of the goal is left within the default bound")
    else:
        print(f"next counterexample: {again[0].trace()} (feasible: {again[1]})")


if __name__ == "__main__":
    main()
