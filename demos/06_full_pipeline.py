"""Run the whole pipeline on a file and print the report.

Usage: python3 06_full_pipeline.py [file.chc] [-n ITERATIONS]
"""

import argparse
from pathlib import Path

from chcprecond import PipelineConfig, analyze_file
from chcprecond.linarith import format_dnf

CORPUS = Path(__file__).resolve().parents[1] / "tests" / "corpus"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("file", nargs="?", default=str(CORPUS / "fig1.chc"))
    ap.add_argument("-n", "--iterations", type=int, default=3)
    opts = ap.parse_args()

    rep = analyze_file(opts.file, PipelineConfig(iterations=opts.iterations))

    for step in rep.steps:
        extra = ""
        if step.label == "te":
            if step.trace is None:
                extra = "  no counterexample in bound"
            else:
                kind = "feasible" if step.feasible else "infeasible"
                extra = f"  removed {step.trace} ({kind})"
        clauses = len(step.program.clauses)
        print(f"{step.label:6s} {step.seconds:6.3f}s  {clauses} clause(s){extra}")
    print()

    print(f"iterations used: {rep.iterations_used} of {opts.iterations} (stop: {rep.stop})")
    print(f"precondition: {format_dnf(rep.precondition)}")
    print(f"classification: {rep.classification}")
    for w in rep.warnings:
        print(f"warning: {w}")


if __name__ == "__main__":
    main()
