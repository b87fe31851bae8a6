"""Timeout fallback in the middle of a later round."""

import time
from types import SimpleNamespace

import chcprecond.driver as driver_mod
from chcprecond.driver import PipelineConfig, run_pipeline

from helpers import load


def test_deadline_after_second_te_falls_back_to_round_one(monkeypatch):
    skew = [0.0]
    real_te = driver_mod.eliminate_trace
    te_calls = []

    def te_then_expire(p, t):
        out = real_te(p, t)
        te_calls.append(t)
        if len(te_calls) == 2:
            skew[0] = 1e6
        return out

    monkeypatch.setattr(driver_mod, "eliminate_trace", te_then_expire)
    monkeypatch.setattr(
        driver_mod, "time", SimpleNamespace(monotonic=lambda: time.monotonic() + skew[0])
    )
    r = run_pipeline(load("example_t4.chc"), PipelineConfig(iterations=3, timeout=600))
    monkeypatch.undo()

    assert r.timed_out and r.stop == "timeout"
    # the partial round's te step is reported, but its result is discarded
    assert [s.label for s in r.steps] == ["input", "pe", "cs", "te", "pe", "cs", "te"]
    assert r.steps[-1].trace is not None
    assert r.iterations_used == 1
    assert any("falling back to iteration 1" in w for w in r.warnings)
    one = run_pipeline(load("example_t4.chc"), PipelineConfig(iterations=1))
    assert r.precondition == one.precondition
    assert r.program == one.program
