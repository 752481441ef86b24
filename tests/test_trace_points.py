"""The benchmark's trace points must name attributes greedyrat still has.

ratbench/tracing.py patches each (owner, attribute) pair at run time; a
refactor that renames or moves one of them should fail here, not only in
the benchmark. The driver must also select through the patched names, or
the benchmark's greedy.select span never fires, and each span's info
function must read the arguments greedyrat really passes.
"""
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "ratbench"))

import tracing  # noqa: E402
from greedyrat import (  # noqa: E402
    DescriptorSystem,
    GreedyConfig,
    TerminationRule,
    greedy,
    kernels,
    make_synthetic,
    run_greedy,
)


def test_every_trace_point_resolves():
    for owner, attr, name, _ in tracing.trace_points():
        assert attr in vars(owner), f"{name}: {owner.__name__}.{attr} no longer exists"


def recording(monkeypatch, owner, name, info=lambda args: args):
    """Replace owner.<name> with a wrapper that records info(args) for each call."""
    calls = []
    fn = getattr(owner, name)

    def recorded(*args, **kwargs):
        calls.append(info(args))
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return calls


def run_synthetic(kind, fitter="loewner", **rule):
    cfg = GreedyConfig(
        f_min=1.0,
        f_max=100.0,
        grid_size=2000,
        fitter=fitter,
        termination=TerminationRule(kind=kind, **rule),
        max_samples=40,
    )
    return run_greedy(make_synthetic([2j, 8j, 30j, 70j], 0, m=2, p=2), cfg)


def test_lookahead_selects_through_next_point(monkeypatch):
    calls = recording(monkeypatch, greedy, "next_point")
    trace = run_synthetic("lookahead")
    assert trace.termination_reason == "lookahead"
    assert len(calls) >= trace.n_iterations


def test_batch_selects_through_batch_test_points(monkeypatch):
    calls = recording(monkeypatch, greedy, "batch_test_points")
    trace = run_synthetic("batch", n_batch=3)
    assert trace.termination_reason == "batch"
    assert len(calls) == trace.n_iterations


@pytest.mark.filterwarnings("ignore:MRI with fewer")
@pytest.mark.parametrize("fitter", ["loewner", "mri"])
def test_info_functions_read_the_arguments_greedyrat_passes(monkeypatch, fitter):
    fit_cells = recording(monkeypatch, greedy, "fit", tracing._fit_cells)
    sweep_cells = recording(monkeypatch, kernels, "eval_sweep", tracing._sweep_cells)
    pencil_z = recording(monkeypatch, DescriptorSystem, "solve_pencil", tracing._pencil_z)
    trace = run_synthetic("lookahead", fitter=fitter)
    assert trace.termination_reason == "lookahead"
    pm = 2 * 2
    sizes = [rec.n_samples for rec in trace.records]
    if fitter == "loewner":
        assert fit_cells == [(s // 2) * pm * (s - s // 2) for s in sizes]
    else:
        assert fit_cells == [pm * s for s in sizes]
    # lookahead sweeps its one test point once per iteration
    assert sweep_cells == [sur.n_support for sur in trace.surrogates]
    assert pencil_z == list(trace.store.solves)
