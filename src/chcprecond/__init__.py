"""Sufficient precondition inference for constrained Horn clauses.

The library specialises a program until the constraints on its initial
facts describe exactly the unsafe initial states it still knows about;
negating their disjunction gives a precondition under which the goal is
unreachable.  `analyze_file` and `run_pipeline` are the main entry points,
the rest re-exports the building blocks for direct use.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from .core import FALSE_PRED, Atom, Clause, Pred, Program
from .cs import constraint_specialise, invariants_for
from .derivation import AndTree, TraceTree, find_counterexample, parse_trace
from .driver import PipelineConfig, PipelineReport, run_pipeline, strip_init
from .linarith import DNF, ConstraintConj, Var, format_conj, format_dnf
from .parser import ParseError, parse_program
from .pe import pe_run
from .precond import classify, extract_swp, final_precondition
from .te import eliminate_trace

__version__ = "0.1.0"

__all__ = [
    "AndTree",
    "Atom",
    "Clause",
    "ConstraintConj",
    "DNF",
    "FALSE_PRED",
    "ParseError",
    "PipelineConfig",
    "PipelineReport",
    "Pred",
    "Program",
    "TraceTree",
    "Var",
    "analyze_file",
    "classify",
    "constraint_specialise",
    "eliminate_trace",
    "extract_swp",
    "final_precondition",
    "find_counterexample",
    "format_conj",
    "format_dnf",
    "invariants_for",
    "parse_program",
    "parse_trace",
    "pe_run",
    "run_pipeline",
    "strip_init",
]


def analyze_file(
    path: Union[str, Path], cfg: Optional[PipelineConfig] = None
) -> PipelineReport:
    """Parse a CHC file and run the pipeline with the given configuration."""
    p = parse_program(Path(path).read_text(encoding="utf-8"))
    return run_pipeline(p, cfg)
