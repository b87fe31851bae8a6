"""Command line front end.

`chc-precond analyze program.chc` parses a CHC file, runs the
specialisation pipeline, and prints the inferred precondition on the
initial states.  Exit codes: 0 on success, 2 on parse or coverage errors,
3 when the timeout forced a fallback to an earlier iteration (a result is
still printed).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .core import Program, check_initial_coverage, format_program
from .cs import constraint_specialise
from .driver import PipelineConfig, PipelineReport, run_pipeline, strip_init
from .linarith import DNF, LinConstraint, format_dnf
from .parser import ParseError, parse_program
from .pe import pe_run


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="chc-precond",
        description="Infer safe preconditions on the initial states of a CHC program.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    an = sub.add_parser("analyze", help="run the specialisation pipeline on one file")
    an.add_argument("file", type=Path, help="CHC program")
    an.add_argument(
        "--iterations",
        type=int,
        default=3,
        metavar="N",
        help="trace-elimination rounds (default 3)",
    )
    an.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        metavar="SECS",
        help="wall-clock budget, checked between steps (default 300)",
    )
    an.add_argument(
        "--initial",
        metavar="PRED/ARITY",
        help="initial predicate, overriding the file's declaration",
    )
    an.add_argument(
        "--strip-init",
        action="store_true",
        help="replace initial constraints by true; classify against the removed ones",
    )
    an.add_argument(
        "--max-cex-nodes",
        type=int,
        default=40,
        metavar="K",
        help="node bound for counterexample search (default 40)",
    )
    an.add_argument("--format", choices=("text", "json"), default="text")
    an.add_argument(
        "--dump",
        choices=("pe", "cs", "invariants", "trace"),
        help="print one intermediate artifact instead of the report",
    )
    return ap


def _constraint_json(k: LinConstraint) -> dict:
    return {
        "coeffs": {v.name: c for v, c in k.coeffs},
        "rel": k.rel,
        "const": k.const,
    }


def _dnf_json(d: DNF) -> list:
    return [[_constraint_json(k) for k in conj.constraints] for conj in d]


def _report_json(args: argparse.Namespace, rep: PipelineReport) -> dict:
    return {
        "file": str(args.file),
        "mode": "strip-init" if args.strip_init else "as-is",
        "iterations": args.iterations,
        "iterations_used": rep.iterations_used,
        "early_stop": rep.early_stop,
        "timed_out": rep.timed_out,
        "precondition": _dnf_json(rep.precondition),
        "precondition_text": format_dnf(rep.precondition),
        "classification": rep.classification,
        "steps": [
            {"label": s.label, "seconds": s.seconds, "swp": _dnf_json(s.swp)}
            for s in rep.steps
        ],
        "final_seconds": rep.final_seconds,
        "classify_seconds": rep.classify_seconds,
        "eliminated_traces": [
            {"trace": s.trace, "feasible": s.feasible}
            for s in rep.steps
            if s.label == "te" and s.trace is not None
        ],
        "warnings": list(rep.warnings),
    }


def _print_text(args: argparse.Namespace, rep: PipelineReport) -> None:
    print(f"file: {args.file}")
    print(f"mode: {'strip-init' if args.strip_init else 'as-is'}")
    used = f"{rep.iterations_used} of {args.iterations}"
    if rep.early_stop:
        used += " (stopped early: no counterexample within the node bound)"
    if rep.timed_out:
        used += " (timeout, fell back)"
    print(f"iterations used: {used}")
    print(f"precondition: {format_dnf(rep.precondition)}")
    print(f"classification: {rep.classification}")
    print("steps:")
    for s in rep.steps:
        line = f"  {s.label:<6} {s.seconds:8.3f}s"
        if s.label == "te" and s.trace is not None:
            line += f"  {s.trace}  [{'feasible' if s.feasible else 'infeasible'}]"
        print(line)
    print(f"after the steps: final {rep.final_seconds:.3f}s, classify {rep.classify_seconds:.3f}s")
    for w in rep.warnings:
        print(f"warning: {w}")


def _dump(args: argparse.Namespace, p: Program, cfg: PipelineConfig) -> int:
    if args.dump == "trace":
        rep = run_pipeline(p, cfg)
        rows = [s for s in rep.steps if s.label == "te" and s.trace is not None]
        if not rows:
            print("no traces eliminated")
        for s in rows:
            print(f"{s.trace}  [{'feasible' if s.feasible else 'infeasible'}]")
        return 3 if rep.timed_out else 0
    if cfg.strip_init:
        p = strip_init(p)
    if args.dump == "pe":
        r = pe_run(p)
        print(r.dump())
        print()
        print(format_program(r.program))
        return 0
    r = constraint_specialise(pe_run(p).program)
    if args.dump == "invariants":
        print(r.invariants.dump())
    else:
        print(format_program(r.program))
        if r.deleted:
            print("deleted:", ", ".join(r.deleted))
    return 0


def _analyze(args: argparse.Namespace) -> int:
    try:
        text = args.file.read_text()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        p = parse_program(text, initial=args.initial)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if not check_initial_coverage(p):
        print(
            "error: coverage check failed: false is derivable without the initial predicate",
            file=sys.stderr,
        )
        return 2
    try:
        cfg = PipelineConfig(
            iterations=args.iterations,
            timeout=args.timeout,
            max_cex_nodes=args.max_cex_nodes,
            strip_init=args.strip_init,
        )
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.dump:
        return _dump(args, p, cfg)
    rep = run_pipeline(p, cfg)
    if args.format == "json":
        print(json.dumps(_report_json(args, rep), indent=2))
    else:
        _print_text(args, rep)
    return 3 if rep.timed_out else 0


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "analyze":
        return _analyze(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
