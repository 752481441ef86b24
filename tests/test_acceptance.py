"""Acceptance gate: one test per criterion, each printing a PASS line.

Criteria 6-8 exercise the fetched benchmark systems and are skipped when
the Matrix Market files are absent (see scripts/fetch_slicot.py).
"""
import json
import warnings

import numpy as np
import pytest

from conftest import data_prefix, expanded_numerator, match_multisets, random_surrogate, requires_data
from greedyrat import (
    GreedyConfig,
    TerminationRule,
    adjusted_relative_error,
    build_test_grid,
    check_prop1,
    check_prop2,
    fit_loewner,
    load_matrix_market,
    make_synthetic,
    partition_samples,
    run_greedy,
)
from greedyrat.system_model import FrequencySample
from greedyrat.verify import draw_probe_points, state_surrogate


def report(n, msg):
    print(f"ACCEPTANCE {n}: PASS - {msg}")


def synthetic_suite():
    """Five seeded systems, orders 8/20/50, never exactly representable here."""
    for seed, order in zip(range(5), (8, 20, 50, 8, 20)):
        rng = np.random.default_rng(1000 + seed)
        poles = 1j * np.sort(rng.uniform(1.5, 95.0, order))
        yield make_synthetic(poles, seed, m=3, p=3)


def greedy_surrogates(system, fitter, n_iterations=8):
    cfg = GreedyConfig(
        f_min=1.0,
        f_max=100.0,
        grid_size=2000,
        tol=1e-12,
        fitter=fitter,
        termination=TerminationRule(kind="max_count"),
        max_samples=n_iterations,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_greedy(system, cfg).surrogates


def test_criterion_01_residual_proportionality():
    checked = 0
    for sys in synthetic_suite():
        for fitter in ("loewner", "mri"):
            for it, sur in enumerate(greedy_surrogates(sys, fitter)):
                if sur.n_support < 2:
                    continue
                pts = draw_probe_points(sur, 1.0, 100.0, 100, seed=it)
                rep = check_prop1(sys, sur, pts)
                assert rep.max_relative_spread <= 1e-8
                assert abs(rep.gamma_estimate - rep.gamma_formula) <= 1e-10 * rep.gamma_formula
                checked += 1
    assert checked >= 50
    report(1, f"rho*|Q| constant to 1e-8 across {checked} fitter/iteration combinations")


def test_criterion_02_error_identity():
    checked = 0
    for sys in synthetic_suite():
        for it, sur in enumerate(greedy_surrogates(sys, "loewner")):
            pts = draw_probe_points(sur, 1.0, 100.0, 100, seed=100 + it)
            rep = check_prop2(sys, sur, pts, 1e-8)
            assert max(rep.identity_residuals) <= 1e-10
            checked += len(pts)
    report(2, f"eps*|Q| = Delta to 1e-10 at {checked} probe points")


def test_criterion_03_arrowhead_roots():
    count = 0
    for seed in range(50):
        s = 2 + seed % 9  # support sizes 2..10
        sur = random_surrogate(s, seed)
        num = expanded_numerator(sur.support, sur.coeffs)
        ref = np.roots(num)
        match_multisets(sur.denominator_roots(), ref, 1e-8)
        count += 1
    report(3, f"arrowhead roots match companion-matrix oracle on {count} surrogates")


def test_criterion_04_exact_recovery():
    rng = np.random.default_rng(4)
    poles = -rng.uniform(0.5, 5, 3) + 1j * rng.uniform(1, 50, 3)
    res = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    d = 0.7 - 0.3j

    def target(z):
        return np.array([[d + np.sum(res / (z - poles))]])

    zs = 1j * np.geomspace(1.0, 100.0, 8)
    sur = fit_loewner(partition_samples([FrequencySample(z, target(z)) for z in zs]))
    worst = 0.0
    for f in np.geomspace(0.5, 200.0, 1000):
        z = 1j * f
        exact = target(z)
        worst = max(worst, np.linalg.norm(sur.eval(z) - exact) / np.linalg.norm(exact))
    assert worst <= 1e-8
    report(4, f"type-[3/3] target recovered from 8 samples, max rel error {worst:.2e}")


def test_criterion_05_greedy_convergence():
    sys = make_synthetic([2j, 8j, 30j, 70j], 0, m=2, p=2)
    cfg = GreedyConfig(
        f_min=1.0,
        f_max=100.0,
        grid_size=10_000,
        tol=1e-3,
        termination=TerminationRule(kind="lookahead_memory", n_memory=2),
        max_samples=20,
    )
    trace = run_greedy(sys, cfg)
    assert trace.termination_reason == "lookahead_memory"
    assert len(trace.samples) <= 20
    grid = build_test_grid(cfg)
    sweep = trace.surrogate.eval_grid(grid)
    worst = max(
        adjusted_relative_error(sys.eval_transfer(z), sweep[k], cfg.delta)
        for k, z in enumerate(grid)
    )
    assert worst <= 1e-3
    report(
        5,
        f"order-4 system converged with {len(trace.samples)} samples, dense max eps {worst:.2e}",
    )


def _dense_max_error(system, sur, cfg):
    grid = build_test_grid(cfg)
    sweep = sur.eval_grid(grid)
    worst = 0.0
    for k, z in enumerate(grid):
        worst = max(worst, adjusted_relative_error(system.eval_transfer(z), sweep[k], cfg.delta))
    return worst


@requires_data("MNA_4")
def test_criterion_06_mna4():
    system = load_matrix_market(data_prefix("MNA_4"))
    assert (system.n, system.p, system.m) == (980, 4, 4)
    base = dict(f_min=3e4, f_max=3e9, grid_size=10_000, tol=1e-3, delta=1e-8, max_samples=60)
    la = run_greedy(system, GreedyConfig(termination=TerminationRule(kind="lookahead"), **base))
    rnd = run_greedy(
        system,
        GreedyConfig(termination=TerminationRule(kind="randomized", n_random=100), **base),
    )
    assert la.termination_reason == "lookahead" and 6 <= la.n_iterations <= 15
    assert rnd.termination_reason == "randomized" and 6 <= rnd.n_iterations <= 15
    cfg = GreedyConfig(termination=TerminationRule(kind="lookahead"), **base)
    worst = _dense_max_error(system, la.surrogate, cfg)
    assert worst <= 1e-2
    report(
        6,
        f"MNA_4 lookahead {la.n_iterations} iters, randomized {rnd.n_iterations} iters, "
        f"validation max eps {worst:.2e}",
    )


@requires_data("tline")
def test_criterion_07_tline():
    system = load_matrix_market(data_prefix("tline"))
    base = dict(f_min=1e7, f_max=1e15, grid_size=10_000, tol=1e-3, delta=1e-8, max_samples=80)
    cfg_plain = GreedyConfig(termination=TerminationRule(kind="lookahead"), **base)
    plain = run_greedy(system, cfg_plain)
    assert plain.termination_reason == "lookahead" and 14 <= plain.n_iterations <= 30
    assert _dense_max_error(system, plain.surrogate, cfg_plain) > cfg_plain.tol
    cfg_mem = GreedyConfig(
        termination=TerminationRule(kind="lookahead_memory", n_memory=3), **base
    )
    mem = run_greedy(system, cfg_mem)
    assert mem.termination_reason == "lookahead_memory" and 28 <= mem.n_iterations <= 55
    worst = _dense_max_error(system, mem.surrogate, cfg_mem)
    assert worst <= 1e-2
    report(
        7,
        f"tline: plain lookahead stops early ({plain.n_iterations} iters, error above tol); "
        f"memory-3 runs {mem.n_iterations} iters with max eps {worst:.2e}",
    )


@requires_data("iss")
def test_criterion_08_iss():
    system = load_matrix_market(data_prefix("iss"))
    assert (system.n, system.p, system.m) == (270, 3, 3)
    base = dict(f_min=0.1, f_max=50.0, grid_size=10_000, tol=1e-3, delta=1e-8, max_samples=160)
    cfg_mem = GreedyConfig(
        termination=TerminationRule(kind="lookahead_memory", n_memory=3), **base
    )
    mem = run_greedy(system, cfg_mem)
    assert mem.termination_reason == "lookahead_memory" and 70 <= mem.n_iterations <= 130
    cfg_batch = GreedyConfig(termination=TerminationRule(kind="batch", n_batch=5), **base)
    batch = run_greedy(system, cfg_batch)
    assert batch.termination_reason == "batch"
    assert batch.n_iterations > mem.n_iterations
    err_mem = _dense_max_error(system, mem.surrogate, cfg_mem)
    err_batch = _dense_max_error(system, batch.surrogate, cfg_batch)
    assert err_batch <= err_mem
    report(
        8,
        f"iss: memory-3 {mem.n_iterations} iters (eps {err_mem:.2e}), "
        f"batch-5 {batch.n_iterations} iters (eps {err_batch:.2e})",
    )


@pytest.mark.parametrize(
    "kind,kw",
    [
        ("max_count", {"max_samples": 6}),
        ("density", {"min_gap": 0.2}),
        ("lookahead", {}),
        ("lookahead_memory", {"n_memory": 2}),
        ("batch", {"n_batch": 3}),
        ("randomized", {"n_random": 9}),
    ],
)
def test_criterion_09_cost_ledger(kind, kw):
    max_samples = kw.pop("max_samples", 40)
    sys = make_synthetic([2j, 8j, 30j, 70j], 0, m=2, p=2)
    cfg = GreedyConfig(
        f_min=1.0,
        f_max=100.0,
        grid_size=2000,
        tol=1e-3,
        termination=TerminationRule(kind=kind, **kw),
        max_samples=max_samples,
    )
    trace = run_greedy(sys, cfg)
    assert trace.termination_reason == kind
    recorded = sum(r.test_calls for r in trace.records)
    overhead = recorded + (cfg.termination.n_random if kind == "randomized" else 0)
    assert trace.oracle_calls == len(trace.samples) + overhead
    if kind in ("lookahead", "lookahead_memory"):
        assert recorded == 1  # exactly one wasted terminal sample
    elif kind == "max_count":
        assert recorded == 0
    elif kind == "randomized":
        assert recorded == 0 and overhead == cfg.termination.n_random
    elif kind == "batch":
        assert all(r.test_calls <= cfg.termination.n_batch for r in trace.records)
        # one sample: the only test point is the global argmax, which joins
        # training, so iteration 1 solves it once and wastes nothing
        assert trace.records[0].oracle_calls == 2
        assert trace.records[0].test_calls == 0
    report(9, f"{kind}: oracle calls {trace.oracle_calls} match the rule's ledger")


def test_criterion_10_determinism(tmp_path):
    from greedyrat.cli import main

    sys = make_synthetic([2j, 8j, 30j, 70j], 0, m=2, p=2)
    prefix = str(tmp_path / "sys")
    sys.save_matrix_market(prefix)
    bodies = []
    for run in ("a", "b"):
        cfg = tmp_path / f"{run}.cfg"
        out = tmp_path / run
        cfg.write_text(
            f"system = {prefix}\nf_min = 1.0\nf_max = 100.0\ngrid_size = 1000\n"
            f"tol = 1e-3\ntermination = lookahead\nseed = 3\noutput_dir = {out}\n"
        )
        assert main(["run", str(cfg)]) == 0
        body = {}
        for name in ("samples.csv", "ledger.csv"):
            with open(out / name) as f:
                body[name] = [line for line in f if not line.startswith("# generated")]
        bodies.append(body)
    assert bodies[0] == bodies[1]
    report(10, "samples.csv and ledger.csv byte-identical across reruns")
