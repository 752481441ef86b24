"""The benchmark's trace points must name attributes greedyrat still has.

ratbench/tracing.py patches each (owner, attribute) pair at run time; a
refactor that renames or moves one of them should fail here, not only in
the benchmark. The driver must also select through the patched names, or
the benchmark's greedy.select span never fires.
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "ratbench"))

import tracing  # noqa: E402
from greedyrat import GreedyConfig, TerminationRule, greedy, make_synthetic, run_greedy  # noqa: E402


def test_every_trace_point_resolves():
    for owner, attr, name, _ in tracing.trace_points():
        assert attr in vars(owner), f"{name}: {owner.__name__}.{attr} no longer exists"


def counting(monkeypatch, name):
    """Replace greedy.<name> with a wrapper that records its calls."""
    calls = []
    fn = getattr(greedy, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(greedy, name, counted)
    return calls


def run_synthetic(kind, **rule):
    cfg = GreedyConfig(
        f_min=1.0,
        f_max=100.0,
        grid_size=2000,
        termination=TerminationRule(kind=kind, **rule),
        max_samples=40,
    )
    return run_greedy(make_synthetic([2j, 8j, 30j, 70j], 0, m=2, p=2), cfg)


def test_lookahead_selects_through_next_point(monkeypatch):
    calls = counting(monkeypatch, "next_point")
    trace = run_synthetic("lookahead")
    assert trace.termination_reason == "lookahead"
    assert len(calls) >= trace.n_iterations


def test_batch_selects_through_batch_test_points(monkeypatch):
    calls = counting(monkeypatch, "batch_test_points")
    trace = run_synthetic("batch", n_batch=3)
    assert trace.termination_reason == "batch"
    assert len(calls) == trace.n_iterations
