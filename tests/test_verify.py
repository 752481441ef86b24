import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import pin_workers, time_bound
from greedyrat import (
    BarycentricSurrogate,
    DescriptorSystem,
    GreedyConfig,
    GreedyratError,
    ResonanceError,
    TerminationRule,
    check_prop1,
    check_prop2,
    make_synthetic,
    residual_norm,
    run_greedy,
    state_surrogate,
)
from greedyrat.verify import NODE_REJECT, PROBE_STREAM, draw_probe_points


def fitted_state(sys, zs, sur=None):
    from greedyrat import fit

    sur = sur or fit([sys.sample(z) for z in zs], "loewner")
    return sur, state_surrogate(sur, sys)


def probe_system(seed=0, order=8):
    rng = np.random.default_rng(seed)
    poles = 1j * np.sort(rng.uniform(1.5, 95.0, order))
    return make_synthetic(poles, seed, m=2, p=2)


def test_state_surrogate_identity_output():
    sys = probe_system(1)
    zs = 1j * np.geomspace(1.0, 100.0, 6)
    sur, gsur = fitted_state(sys, zs)
    rng = np.random.default_rng(2)
    for z in 1j * rng.uniform(1, 100, 10):
        a = sys.C @ gsur.eval(z)
        b = sur.eval(z)
        assert np.linalg.norm(a - b) <= 1e-12 * max(np.linalg.norm(b), 1.0)


def test_state_surrogate_with_identity_output_matrix():
    n = 4
    sys = DescriptorSystem(np.eye(n), np.diag([1j, 2j, 5j, 9j]), np.ones((n, 1)), np.eye(n))
    zs = 1j * np.array([1.5, 3.0, 7.0])
    sur, gsur = fitted_state(sys, zs)
    assert np.array_equal(gsur.values, sur.values)


def test_state_surrogate_single_node_is_constant():
    sys = probe_system(3)
    sur = BarycentricSurrogate([10j], np.array([sys.eval_transfer(10j)]), [1.0])
    gsur = state_surrogate(sur, sys)
    assert np.allclose(gsur.eval(33j), sys.eval_state_transfer(10j), rtol=1e-13)


def test_residual_zero_for_exact_state():
    # order-2 target recovered exactly: the state residual vanishes everywhere
    sys = make_synthetic([3j, 20j], 4, m=2, p=2)
    zs = 1j * np.geomspace(1.0, 100.0, 8)
    _, gsur = fitted_state(sys, zs)
    for z in (1.7j, 12j, 55j):
        assert residual_norm(sys, gsur, z) <= 1e-12


def test_residual_single_node_hand_expansion():
    sys = probe_system(5)
    z1 = 10j
    gsur = BarycentricSurrogate([z1], np.array([sys.eval_state_transfer(z1)]), [1.0])
    for z in (3j, 25j, 80j):
        got = residual_norm(sys, gsur, z)
        # (zE - A) G(z1) - B = (z - z1) E G(z1) since (z1 E - A) G(z1) = B
        ref = abs(z - z1) * np.linalg.norm(sys.E @ sys.eval_state_transfer(z1))
        ref /= np.linalg.norm(sys.B)
        assert got == pytest.approx(ref, rel=1e-10)


def test_residual_times_absq_constant():
    sys = probe_system(6)
    zs = 1j * np.geomspace(1.0, 100.0, 7)
    sur, gsur = fitted_state(sys, zs)
    rng = np.random.default_rng(7)
    prods = []
    for z in 1j * np.exp(rng.uniform(0, np.log(100), 100)):
        if np.min(np.abs(z - sur.support)) < 1e-4:
            continue
        prods.append(residual_norm(sys, gsur, z) * abs(sur.eval_denominator(z)))
    prods = np.array(prods)
    assert np.max(np.abs(prods - prods.mean())) / prods.mean() <= 1e-8


@pytest.mark.parametrize("seed", range(3))
def test_prop1_report(seed):
    sys = probe_system(seed + 10)
    zs = 1j * np.geomspace(1.0, 100.0, 9)
    sur, gsur = fitted_state(sys, zs)
    pts = draw_probe_points(sur, 1.0, 100.0, 100, seed=seed)
    rep = check_prop1(sys, sur, pts, gsur=gsur)
    assert rep.max_relative_spread <= 1e-8
    assert rep.max_identity_residual <= 1e-10
    assert rep.gamma_estimate == pytest.approx(rep.gamma_formula, rel=1e-10)


def test_prop1_gamma_near_zero_for_exact_surrogate():
    # representable target: order-2 system fitted from enough samples
    sys = make_synthetic([3j, 20j], 1, m=2, p=2)
    zs = 1j * np.geomspace(1.0, 100.0, 8)
    sur, gsur = fitted_state(sys, zs)
    rep = check_prop1(sys, sur, draw_probe_points(sur, 1.0, 100.0, 20, seed=0), gsur=gsur)
    assert rep.gamma_formula <= 1e-10


@pytest.mark.parametrize("seed", range(3))
def test_prop2_identity(seed):
    sys = probe_system(seed + 20)
    zs = 1j * np.geomspace(1.0, 100.0, 9)
    sur, gsur = fitted_state(sys, zs)
    pts = draw_probe_points(sur, 1.0, 100.0, 100, seed=seed)
    rep = check_prop2(sys, sur, pts, 1e-8, gsur=gsur)
    assert max(rep.identity_residuals) <= 1e-10
    assert np.isfinite(rep.delta_max)


@pytest.mark.parametrize("workers", [1, 2])
def test_prop2_raises_the_first_resonant_probe(monkeypatch, workers):
    # two probes are exact poles; however many CPUs are usable, the probes
    # are solved in order and the first pole raises
    pts = list(1j * np.geomspace(1.0, 100.0, 37))
    first, second = pts[10], pts[25]
    sys = make_synthetic([2j, first, 70j, second], 0, m=2, p=2)
    sur, gsur = fitted_state(sys, 1j * np.array([1.5, 4.0, 9.0, 30.0, 80.0]))
    pin_workers(monkeypatch, workers)
    with pytest.raises(ResonanceError) as raised:
        check_prop2(sys, sur, pts, 1e-8, gsur=gsur)
    assert raised.value.z == first
    with pytest.raises(ResonanceError):
        sys.eval_transfer(second)


def test_prop2_identity_output_specialization():
    # C = I and delta = 0 reduces Delta to a ratio of resolvent actions
    n = 5
    rng = np.random.default_rng(9)
    sys = DescriptorSystem(
        np.eye(n), np.diag(1j * np.sort(rng.uniform(2, 90, n))), rng.standard_normal((n, 2)), np.eye(n)
    )
    zs = 1j * np.geomspace(1.0, 100.0, 7)
    sur, gsur = fitted_state(sys, zs)
    pts = draw_probe_points(sur, 1.0, 100.0, 20, seed=3)
    rep = check_prop2(sys, sur, pts, 0.0, gsur=gsur)
    btilde = sys.E @ np.tensordot(sur.coeffs, gsur.values, axes=1)
    for z, d in zip(pts, rep.delta):
        ref = np.linalg.norm(sys.solve_pencil(z, btilde)) / np.linalg.norm(
            sys.solve_pencil(z, sys.B)
        )
        assert d == pytest.approx(ref, rel=1e-12)


def test_probe_points_avoid_support():
    sur = BarycentricSurrogate(
        1j * np.array([2.0, 30.0]), np.zeros((2, 1, 1)), np.array([1.0, 1.0]) / np.sqrt(2)
    )
    pts = draw_probe_points(sur, 1.0, 100.0, 500, seed=1)
    for z in pts:
        rel = np.min(np.abs(z - sur.support) / np.abs(sur.support))
        assert rel > 1e-6


def unbounded_draws(sur, f_min, f_max, count, seed):
    """draw_probe_points with no bound on its redraws, as the reference."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        z = 1j * math.exp(rng.uniform(math.log(f_min), math.log(f_max)))
        if np.min(np.abs(z - sur.support) / np.abs(sur.support)) > NODE_REJECT:
            out.append(z)
    return out


@pytest.mark.parametrize("f_min, f_max", [(1.0, 100.0), (0.9999995e-6, 1.0000015e-6)])
def test_probe_points_keep_the_draws_of_an_unbounded_redraw(f_min, f_max):
    # every draw within NODE_REJECT * 1e-6 = 1e-12 of the node at 1e-6 is
    # redrawn, so on the second range about 75% of the draws are
    sur = SimpleNamespace(support=1j * np.array([1e-6, 3e-6, 2.0, 30.0]))
    for seed in (0, [7, PROBE_STREAM]):
        want = unbounded_draws(sur, f_min, f_max, 200, seed)
        assert draw_probe_points(sur, f_min, f_max, 200, seed=seed) == want


def test_probe_points_refuse_a_range_within_node_reject_of_the_nodes():
    # every frequency in [1, 1 + 1e-7] lies within NODE_REJECT of a node,
    # where the redraws used to go on for ever
    sys = make_synthetic([2j, 5j, 11j], 1, 2, 2)
    rule = TerminationRule("max_count")
    cfg = GreedyConfig(f_min=1.0, f_max=1.0 + 1e-7, grid_size=100, termination=rule, max_samples=5)
    sur = run_greedy(sys, cfg).surrogate
    with time_bound(5), pytest.raises(GreedyratError, match=r"in \[1\.0, 1\.0000001\]"):
        draw_probe_points(sur, 1.0, 1.0 + 1e-7, 100, seed=[0, 1])


def verify_report(tmp_path, monkeypatch, sys, sur):
    """`greedyrat verify` on sys and sur: verify.csv's rows, the probe points
    and the Prop-1/Prop-2 reports the command computed.
    """
    from greedyrat import verify
    from greedyrat.cli import main

    reports = {}

    def keep(name):
        check = getattr(verify, name)
        return lambda *args, **kwargs: reports.setdefault(name, check(*args, **kwargs))

    for name in ("check_prop1", "check_prop2"):
        monkeypatch.setattr(verify, name, keep(name))
    prefix = str(tmp_path / "sys")
    sys.save_matrix_market(prefix)
    sur_path = str(tmp_path / "surrogate.json")
    sur.save(sur_path)
    cfg = tmp_path / "verify.cfg"
    cfg.write_text(f"system = {prefix}\nf_min = 1\nf_max = 100\ndelta = 1e-8\nseed = 0\n")
    assert main(["verify", str(cfg), sur_path]) == 0
    text = (tmp_path / "verify.csv").read_text()
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    # the probes of `greedyrat verify` at config seed 0
    pts = draw_probe_points(sur, 1.0, 100.0, 100, seed=[0, verify.PROBE_STREAM])
    return rows, pts, reports["check_prop1"], reports["check_prop2"]


def test_report_csv(tmp_path, monkeypatch):
    sys = probe_system(30)
    zs = 1j * np.geomspace(1.0, 100.0, 7)
    sur, _ = fitted_state(sys, zs)
    rows, pts, p1, p2 = verify_report(tmp_path, monkeypatch, sys, sur)
    assert rows[0] == "f,rho,absQ,rho_absQ,eps,Delta"
    assert len(rows) == 1 + len(pts)
    assert [float(r.split(",")[0]) for r in rows[1:]] == [z.imag for z in pts]
    assert [float(r.split(",")[5]) for r in rows[1:]] == p2.delta
    assert p1.max_relative_spread <= 1e-8


def test_report_csv_solves_each_probe_once(tmp_path, monkeypatch):
    sys = probe_system(31)
    zs = 1j * np.geomspace(1.0, 100.0, 7)
    sur, _ = fitted_state(sys, zs)
    solved = []
    solve_pencil = DescriptorSystem.solve_pencil
    monkeypatch.setattr(
        DescriptorSystem, "solve_pencil", lambda s, z, b: solved.append(z) or solve_pencil(s, z, b)
    )
    rows, pts, _, p2 = verify_report(tmp_path, monkeypatch, sys, sur)
    # the state samples at the support, then one factorization per probe
    # point for both H and the Delta numerator; the CSV reuses check_prop2's eps
    assert solved == list(sur.support) + pts
    assert [float(r.split(",")[4]) for r in rows[1:]] == p2.eps


def test_report_csv_solves_every_probe_in_this_process(tmp_path, monkeypatch):
    sys = probe_system(31)
    zs = 1j * np.geomspace(1.0, 100.0, 7)
    sur, _ = fitted_state(sys, zs)
    # with 2 workers to be had, verify still forks none
    pin_workers(monkeypatch, 2)
    log = tmp_path / "solved.txt"
    solve_pencil = DescriptorSystem.solve_pencil

    def logged(s, z, b):
        # appended from whichever process solves, one line per solve
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {complex(z)!r}\n")
        return solve_pencil(s, z, b)

    monkeypatch.setattr(DescriptorSystem, "solve_pencil", logged)
    _, pts, _, _ = verify_report(tmp_path, monkeypatch, sys, sur)
    solves = [line.split() for line in log.read_text().splitlines()]
    assert {pid for pid, _ in solves} == {str(os.getpid())}
    assert [complex(z) for _, z in solves] == list(sur.support) + pts


def test_report_csv_evaluates_the_denominator_twice_per_probe(tmp_path, monkeypatch):
    sys = probe_system(33)
    zs = 1j * np.geomspace(1.0, 100.0, 7)
    sur, _ = fitted_state(sys, zs)
    evaluated = []
    unpatched = BarycentricSurrogate.eval_denominator

    def counted(self, z):
        evaluated.append(z)
        return unpatched(self, z)

    monkeypatch.setattr(BarycentricSurrogate, "eval_denominator", counted)
    rows, pts, p1, _ = verify_report(tmp_path, monkeypatch, sys, sur)
    # once in check_prop1, once in check_prop2; the absQ column is check_prop1's
    assert evaluated == pts + pts
    assert [float(r.split(",")[2]) for r in rows[1:]] == p1.absq
    assert [float(r.split(",")[3]) for r in rows[1:]] == p1.rho_absq


def test_prop1_forms_each_residual_once(monkeypatch):
    sys = probe_system(32)
    zs = 1j * np.geomspace(1.0, 100.0, 7)
    sur, gsur = fitted_state(sys, zs)
    pts = draw_probe_points(sur, 1.0, 100.0, 10, seed=0)
    evaluated = []
    unpatched = gsur.eval
    monkeypatch.setattr(gsur, "eval", lambda z: evaluated.append(z) or unpatched(z))
    p1 = check_prop1(sys, sur, pts, gsur=gsur)
    assert evaluated == pts
    assert p1.rho_absq == [residual_norm(sys, gsur, z) * abs(sur.eval_denominator(z)) for z in pts]
