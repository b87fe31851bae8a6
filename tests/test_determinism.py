"""Reports do not depend on the hash seed.

Sets and dicts of variables, constraints and conjunctions iterate in an
order that `PYTHONHASHSEED` changes; every report field but the timings
must come out byte-identical anyway.  Two interpreters with different
seeds run the corpus at default settings and the generated programs at
one iteration, and print each report.
"""

import os
import subprocess
import sys
from pathlib import Path

import chcprecond

from helpers import CORPUS, gen_multivar_texts

SCRIPT = """
import sys
from chcprecond.core import format_program
from chcprecond.driver import PipelineConfig, run_pipeline
from chcprecond.parser import parse_program
from chcprecond.precond import extract_swp
texts, gen = sys.argv[1:11], sys.argv[11:]
runs = [(t, PipelineConfig()) for t in texts]
runs += [(t, PipelineConfig(iterations=1)) for t in gen]
for text, cfg in runs:
    r = run_pipeline(parse_program(text), cfg)
    print("precondition", r.precondition)
    print(r.classification, r.iterations_used, r.timed_out, r.stop, r.warnings)
    for s in r.steps:
        print("step", s.label, s.feasible, s.trace, "swp", extract_swp(s.program))
        print(format_program(s.program), end="")
    print(format_program(r.program), end="")
"""


def test_reports_are_identical_under_two_hash_seeds():
    texts = [f.read_text() for f in sorted(CORPUS.glob("*.chc"))]
    assert len(texts) == 10
    src = str(Path(chcprecond.__file__).resolve().parents[1])
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", SCRIPT, *texts, *gen_multivar_texts()],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE,
            text=True,
        )
        for seed in ("0", "7")
    ]
    outs = [p.communicate()[0] for p in procs]
    assert [p.returncode for p in procs] == [0, 0]
    assert outs[0].count("precondition") == 26
    assert outs[0] == outs[1]
