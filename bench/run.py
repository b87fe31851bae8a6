"""End-to-end and per-layer benchmark of chc-precond.

    python3 bench/run.py --workload fig1-deep --seed 1 --seconds 30 --trace 0

One operation is one `run_pipeline` call on one program, made after
clearing the process-wide `satisfiable` cache, so each starts cold as a CLI
invocation does.  A run repeats whole rounds over the workload's programs,
in an order drawn from the seed, until `--seconds` have passed; the process
is single-threaded.  After the timed region every output is checked apart
from the solver: an independent bounded derivation search on each accepted
initial state, the safe sets the programs state, and byte-identical
preconditions across repeats.

The last line printed is one JSON object.  With `--trace 0` its metrics are
the end-to-end ones.  With `--trace 1` the run is split in two halves, the
second traced, and the metrics are per layer, together with the tracing
overhead against the untraced half.  See README.md for what each metric
should move.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import workloads
from oracle import DerivationSearch, holds_dnf
from spans import Tracer

SETUP_PROBES = 9
OP_LIMIT_S = 60.0
P90_MIN_OPS = 100

SELF_TIME = (
    "pe.pe_run", "cs.constraint_specialise", "derivation.find_counterexample",
    "te.eliminate_trace", "precond.extract_swp", "precond.final_precondition",
    "precond.classify", "linarith.negate_dnf", "linarith.make_dnf",
    "linarith.project", "linarith.entails", "simplex.check",
)
# pipeline stages and the simplex kernel, for the inclusive time shares
STAGES = (
    "pe.pe_run", "cs.constraint_specialise", "derivation.find_counterexample",
    "te.eliminate_trace", "precond.extract_swp", "precond.final_precondition",
    "precond.classify", "simplex.check",
)
CALLS = (
    "pe.pe_run", "polyhedra.join", "polyhedra.widen", "derivation.find_counterexample",
    "precond.extract_swp", "linarith.negate_dnf", "linarith.make_dnf",
    "linarith.project", "linarith.entails", "linarith.satisfiable",
    "linarith.int_satisfiable", "simplex.check", "simplex.int_feasible",
)


class OpTimeout(BaseException):
    """An operation ran past OP_LIMIT_S."""


def _on_alarm(signum, frame):
    raise OpTimeout(f"operation exceeded {OP_LIMIT_S:.0f} s")


@dataclass
class Phase:
    """Operations of one timed region."""

    times: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    warnings: int = 0
    hits: int = 0
    misses: int = 0
    cache_max: int = 0
    errors: list[str] = field(default_factory=list)


class SetupProbes:
    """Cold set-ups, each in a fresh interpreter, spread evenly over a run.

    Spreading them lets the median see the same machine states as the
    operations do, instead of a few seconds before the timed region.
    """

    def __init__(self, workload: str, seconds: float):
        self.workload = workload
        self.every = seconds / SETUP_PROBES
        self.start = time.perf_counter()
        self.probes: list[dict[str, float]] = []

    def take_due(self) -> None:
        while (len(self.probes) < SETUP_PROBES
               and time.perf_counter() - self.start >= len(self.probes) * self.every):
            self.take()

    def take(self) -> None:
        # bytecode may be cached, as it is for an installed package; only
        # the first probe of a fresh checkout compiles
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        out = subprocess.run(
            [sys.executable, str(workloads.BENCH / "setup_probe.py"), self.workload],
            capture_output=True, text=True, timeout=120, env=env,
        )
        if out.returncode != 0:
            sys.exit(f"set-up failed:\n{out.stderr.strip()}")
        self.probes.append(json.loads(out.stdout.strip().splitlines()[-1]))

    def medians(self) -> dict[str, float]:
        while len(self.probes) < SETUP_PROBES:
            self.take()
        return {
            "setup_s": statistics.median(p["import_s"] + p["inputs_s"] for p in self.probes),
            "import_s": statistics.median(p["import_s"] for p in self.probes),
            "inputs_s": statistics.median(p["inputs_s"] for p in self.probes),
        }


def run_rounds(cases, order, cfg, seconds, sat, texts, precs, tracer=None, probes=None) -> Phase:
    """Whole rounds over `order` until `seconds` have passed.

    Set-up probes due by the clock run between operations, outside their
    timings.
    """
    from chcprecond import format_dnf, run_pipeline

    phase = Phase()
    deadline = time.perf_counter() + seconds
    while True:
        for i in order:
            case = cases[i]
            if tracer is not None:
                tracer.op = phase.attempted
            phase.attempted += 1
            sat.cache_clear()
            signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
            try:
                t0 = time.perf_counter()
                rep = run_pipeline(case.program, cfg)
                dt = time.perf_counter() - t0
            except (Exception, OpTimeout) as exc:
                phase.failed += 1
                phase.errors.append(f"{case.label}: {exc!r}")
                continue
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            if rep.timed_out:
                phase.failed += 1
                phase.errors.append(f"{case.label}: pipeline timeout")
                continue
            info = sat.cache_info()
            phase.hits += info.hits
            phase.misses += info.misses
            phase.cache_max = max(phase.cache_max, info.currsize)
            phase.times.append(dt)
            phase.warnings += len(rep.warnings)
            texts[i].add(format_dnf(rep.precondition))
            precs[i] = rep.precondition
            if probes is not None:
                probes.take_due()
        if time.perf_counter() >= deadline:
            return phase


def check(spec, cases, texts, precs) -> tuple[int, list[str]]:
    """Count accepted box points and collect every failed check."""
    problems = []
    safe_points = 0
    for i, case in enumerate(cases):
        if i not in precs:
            continue
        if len(texts[i]) != 1:
            problems.append(f"{case.label}: {len(texts[i])} different preconditions")
        text = min(texts[i])
        want = spec.exact.get(case.label)
        if want is not None and text != want:
            problems.append(f"{case.label}: precondition {text!r}, expected {want!r}")
        args = case.program.init_args
        stated = spec.stated.get(case.label)
        search = DerivationSearch(case.program, spec.depth, spec.window)
        box = spec.boxes[len(args)]
        for pt in itertools.product(*(range(lo, hi + 1) for lo, hi in box)):
            if not holds_dnf(precs[i], dict(zip(args, pt))):
                continue
            safe_points += 1
            if stated is not None and not stated(*pt):
                problems.append(f"{case.label}: accepts {pt}, outside the stated safe set")
            if search.reaches_false(pt):
                problems.append(f"{case.label}: accepts {pt}, which reaches false")
    return safe_points, problems


def per_op(total: float, n: int) -> float:
    return total / n if n else 0.0


def layer_metrics(totals: dict, tracer: Tracer, phase: Phase, setup, parse_s, overhead) -> dict:
    n = len(phase.times)
    m = {
        "setup.import_s": (setup["import_s"], "s"),
        "setup.inputs_s": (setup["inputs_s"], "s"),
        "parser.parse_program.s": (parse_s, "s"),
    }
    for name in SELF_TIME:
        m[f"{name}.s"] = (per_op(totals[name][0], n), "s/op")
    for name in CALLS:
        m[f"{name}.calls"] = (per_op(totals[name][2], n), "calls/op")
    for name in ("pe.pe_run", "cs.constraint_specialise", "te.eliminate_trace"):
        m[f"{name.split('.')[0]}.clauses_out"] = (
            per_op(tracer.clauses_out[name], n), "clauses/op")
    looked_up = phase.hits + phase.misses
    m["linarith.satisfiable.hit_ratio"] = (phase.hits / looked_up if looked_up else 0.0, "ratio")
    m["linarith.satisfiable.cache_size"] = (phase.cache_max, "entries")
    m["simplex.bnb_nodes"] = (per_op(totals["simplex.spend"][2], n), "nodes/op")
    m["driver.warnings"] = (per_op(phase.warnings, n), "warnings/op")
    m["trace.overhead"] = (overhead, "ratio")
    return m


def mean_op(phase: Phase) -> float:
    return statistics.fmean(phase.times) if phase.times else 0.0


def run_plain(args, probes, cases, order, cfg, sat, texts, precs):
    """One untraced timed region; returns its phases and end-to-end metrics."""
    run = run_rounds(cases, order, cfg, args.seconds, sat, texts, precs, probes=probes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    times = run.times
    if len(times) >= P90_MIN_OPS:
        p90 = statistics.quantiles(times, n=10)[-1]
        print(f"program_s.p90 = {p90:.6f} s ({len(times)} operations)")
    return (run,), {
        "setup_s": (probes.medians()["setup_s"], "s"),
        "programs_per_s": (len(times) / sum(times) if times else 0.0, "1/s"),
        "program_s.p50": (statistics.median(times) if times else 0.0, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def run_traced(args, probes, cases, order, cfg, sat, texts, precs):
    """An untraced half, then a traced half; returns both and per-layer metrics."""
    import chcprecond

    half = args.seconds / 2
    plain = run_rounds(cases, order, cfg, half, sat, texts, precs, probes=probes)
    tracer = Tracer()
    tracer.install()
    try:
        for c in cases:
            chcprecond.parse_program(c.text)
        parsed = tracer.totals()
        traced = run_rounds(cases, order, cfg, half, sat, texts, precs, tracer)
    finally:
        tracer.uninstall()
    # operations only: the parse pass above is reported on its own
    totals = {
        name: tuple(a - b for a, b in zip(t, parsed[name]))
        for name, t in tracer.totals().items()
    }
    overhead = mean_op(traced) / mean_op(plain) if plain.times else 0.0
    metrics = layer_metrics(
        totals, tracer, traced, probes.medians(), parsed["parser.parse_program"][0], overhead)
    op_time = sum(traced.times)
    for name in STAGES:
        share = totals[name][1] / op_time if op_time else 0.0
        print(f"share of traced time in {name}: {share:.1%}")
    spans_path = workloads.BENCH / "out" / f"{args.workload}.spans.tsv.gz"
    tracer.write(spans_path)
    print(f"spans: {len(tracer.span_start)} written to {spans_path.relative_to(workloads.ROOT)}")
    print(f"tracing overhead: traced {mean_op(traced):.4f} s/op against untraced "
          f"{mean_op(plain):.4f} s/op, ratio {overhead:.3f}")
    return (plain, traced), metrics


def main() -> int:
    ap = argparse.ArgumentParser(description="chc-precond benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec = workloads.SPECS[args.workload]

    # the first probe caches bytecode before this process imports the
    # package, so the import below is the same in every run of a checkout
    probes = SetupProbes(args.workload, args.seconds / (2 if args.trace else 1))
    probes.take()
    workloads.use_checkout_src()
    import chcprecond

    sat = chcprecond.linarith.satisfiable
    cases = workloads.build(args.workload)
    order = list(range(len(cases)))
    random.Random(args.seed).shuffle(order)
    cfg = chcprecond.PipelineConfig(iterations=spec.iterations)
    texts: dict[int, set[str]] = defaultdict(set)
    precs: dict = {}
    signal.signal(signal.SIGALRM, _on_alarm)
    run = run_traced if args.trace else run_plain
    phases, metrics = run(args, probes, cases, order, cfg, sat, texts, precs)

    safe_points, problems = check(spec, cases, texts, precs)
    if not args.trace:
        metrics["safe_points"] = (safe_points, "count")
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for p in phases:
        for err in p.errors[:10]:
            print(f"failed: {err}", file=sys.stderr)
    for msg in problems[:20]:
        print(f"check: {msg}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {attempted} operations, "
          f"{failed} failed, {len(cases)} programs, {len(problems)} failed checks")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
