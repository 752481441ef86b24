import math

import numpy as np
import pytest

from conftest import random_surrogate, rational_11, rlc_line, spring_chain
from greedyrat import (
    BarycentricSurrogate,
    GreedyConfig,
    GreedyRun,
    GreedyratError,
    GridExhaustedError,
    ResonanceError,
    TerminationRule,
    adjusted_relative_error,
    batch_test_points,
    build_test_grid,
    estimator_curve,
    fit,
    make_synthetic,
    next_point,
    random_test_points,
    run_greedy,
)
from greedyrat import greedy, kernels


def order4_system(seed=0):
    return make_synthetic([2j, 8j, 30j, 70j], seed, m=2, p=2)


def cfg_with(kind, **kw):
    rule_keys = {k: kw.pop(k) for k in ("n_memory", "n_batch", "n_random", "min_gap") if k in kw}
    return GreedyConfig(
        f_min=kw.pop("f_min", 1.0),
        f_max=kw.pop("f_max", 100.0),
        grid_size=kw.pop("grid_size", 2000),
        termination=TerminationRule(kind=kind, **rule_keys),
        **kw,
    )


# -- grid ------------------------------------------------------------------


def test_grid_geometric_spacing():
    cfg = GreedyConfig(f_min=1.0, f_max=100.0, grid_size=3)
    assert build_test_grid(cfg) == pytest.approx(np.array([1j, 10j, 100j]))


def test_grid_endpoints_included():
    cfg = GreedyConfig(f_min=3e4, f_max=3e9, grid_size=10_000)
    grid = build_test_grid(cfg)
    assert grid[0] == pytest.approx(3e4j)
    assert grid[-1] == pytest.approx(3e9j)
    assert grid.size == 10_000


# -- configuration ---------------------------------------------------------


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["f_min", "f_max", "tol", "delta", "min_gap"])
def test_config_rejects_non_finite_values(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        if name == "min_gap":
            TerminationRule(kind="density", min_gap=value)
        else:
            GreedyConfig(**{"f_min": 1.0, "f_max": 100.0, name: value})


@pytest.mark.parametrize("name,value", [("seed", -1), ("max_samples", 0), ("grid_size", 1)])
def test_config_rejects_out_of_range_integers(name, value):
    with pytest.raises(ValueError, match=name):
        GreedyConfig(**{"f_min": 1.0, "f_max": 100.0, name: value})


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"f_min": 0.0}, "0 < f_min < f_max"),
        ({"f_min": 100.0}, "0 < f_min < f_max"),
        ({"tol": 0.0}, "tol must be positive"),
        ({"delta": -1e-8}, "delta must be nonnegative"),
        ({"fitter": "aaa"}, "unknown fitter 'aaa'"),
    ],
    ids=["f_min-zero", "f_min-not-below-f_max", "tol", "delta", "fitter"],
)
def test_config_rejects_out_of_range_values(overrides, message):
    with pytest.raises(ValueError, match=message):
        GreedyConfig(**{"f_min": 1.0, "f_max": 100.0, **overrides})


@pytest.mark.parametrize(
    "kind, name, value",
    [
        ("lookahead_memory", "n_memory", 0),
        ("batch", "n_batch", 0),
        ("randomized", "n_random", 0),
        ("density", "min_gap", 0.0),
    ],
)
def test_rule_rejects_out_of_range_values(kind, name, value):
    with pytest.raises(ValueError, match=name):
        TerminationRule(kind=kind, **{name: value})


# -- adjusted relative error ----------------------------------------------


def test_error_zero_on_equal():
    M = np.ones((2, 2))
    assert adjusted_relative_error(M, M, 1e-8) == 0.0


def test_error_zero_signal_case():
    approx = np.array([[3.0, 4.0]])  # Frobenius norm 5
    assert adjusted_relative_error(np.zeros((1, 2)), approx, 1e-8) == pytest.approx(5.0 / 1e-8)


def test_error_matches_direct_norms():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    ref = math.sqrt(np.sum(np.abs(b - a) ** 2)) / (math.sqrt(np.sum(np.abs(a) ** 2)) + 1e-8)
    assert adjusted_relative_error(a, b, 1e-8) == pytest.approx(ref, rel=1e-15)


def scale_delta_cases():
    """50 seeded draws of scale, log-uniform on [1e-6, 1e6], and delta,
    uniform on [0, 1e3], plus the four corners."""
    rng = np.random.default_rng(0)
    scales = np.exp(rng.uniform(math.log(1e-6), math.log(1e6), 50))
    deltas = rng.uniform(0.0, 1e3, 50)
    draws = [
        pytest.param(float(s), float(d), id=f"draw{i}") for i, (s, d) in enumerate(zip(scales, deltas))
    ]
    corners = [pytest.param(s, d, id=f"corner-{s:g}-{d:g}") for s in (1e-6, 1e6) for d in (0.0, 1e3)]
    return draws + corners


@pytest.mark.parametrize("scale, delta", scale_delta_cases())
def test_error_scale_covariance(scale, delta):
    a = np.array([[1.0 + 1j, 2.0]])
    b = np.array([[0.5, 2.5 - 1j]])
    lhs = adjusted_relative_error(scale * a, scale * b, scale * delta)
    assert lhs == pytest.approx(adjusted_relative_error(a, b, delta), rel=1e-12)


# -- next point / batch / random ------------------------------------------


def reference_indicator(sur, grid, excluded):
    """kernels.indicator_sweep over the grid, with the excluded points set to -1."""
    grid = np.asarray(grid)
    ind = kernels.indicator_sweep(grid, sur.support, sur.coeffs)
    if excluded:
        ind[np.isin(grid, np.fromiter(excluded, dtype=np.complex128))] = -1.0
    return ind


def test_next_point_single_node_picks_far_end():
    from greedyrat import BarycentricSurrogate

    grid = build_test_grid(GreedyConfig(f_min=1.0, f_max=100.0, grid_size=100))
    sur = BarycentricSurrogate([grid[0]], np.array([[[1.0]]]), [1.0])
    assert grid[next_point(reference_indicator(sur, grid, {complex(grid[0])}))] == complex(grid[-1])


@pytest.mark.parametrize("seed", range(3))
def test_next_point_matches_exhaustive_scan(seed):
    sur = random_surrogate(5, seed, scale=50.0)
    grid = build_test_grid(GreedyConfig(f_min=1.0, f_max=100.0, grid_size=500))
    sampled = {complex(grid[7]), complex(grid[123])}
    got = grid[next_point(reference_indicator(sur, grid, sampled))]
    # independent re-scan with 1/|Q| written out point by point
    best, best_val = None, -1.0
    for z in grid:
        z = complex(z)
        if z in sampled:
            continue
        val = 1.0 / abs(np.sum(sur.coeffs / (z - sur.support)))
        if val > best_val:
            best, best_val = z, val
    assert got == best


def test_next_point_grid_exhausted():
    from greedyrat import BarycentricSurrogate

    grid = np.array([1j, 2j])
    sur = BarycentricSurrogate([1j], np.array([[[1.0]]]), [1.0])
    with pytest.raises(GridExhaustedError):
        next_point(reference_indicator(sur, grid, {1j, 2j}))
    with pytest.raises(GridExhaustedError, match="empty test grid"):
        next_point(np.array([]))


def test_batch_monotone_indicator_single_max():
    from greedyrat import BarycentricSurrogate

    grid = build_test_grid(GreedyConfig(f_min=1.0, f_max=100.0, grid_size=200))
    sur = BarycentricSurrogate([grid[0]], np.array([[[1.0]]]), [1.0])
    pts = list(grid[batch_test_points(reference_indicator(sur, grid, {complex(grid[0])}), 5)])
    assert pts == [complex(grid[-1])]


def test_batch_equals_next_point_for_n1():
    sur = random_surrogate(6, 1, scale=50.0)
    grid = build_test_grid(GreedyConfig(f_min=1.0, f_max=100.0, grid_size=500))
    pts = list(grid[batch_test_points(reference_indicator(sur, grid, set()), 1)])
    if len(pts) == 1 and 0 < np.argmax(sur.indicator_grid(grid)) < grid.size - 1:
        assert pts[0] == grid[next_point(reference_indicator(sur, grid, set()))]


def test_batch_local_maxima_near_denominator_roots():
    # support on the imaginary axis gives denominator roots near the axis,
    # each showing up as a local max of the gridded indicator
    from greedyrat import BarycentricSurrogate

    support = 1j * np.array([2.0, 10.0, 40.0, 90.0])
    q = np.array([0.3, 0.4, 0.2, 0.6])  # positive weights put the roots on the axis
    q /= np.linalg.norm(q)
    sur = BarycentricSurrogate(support, np.zeros((4, 1, 1)), q)
    grid = build_test_grid(GreedyConfig(f_min=1.0, f_max=100.0, grid_size=5000))
    pts = list(grid[batch_test_points(reference_indicator(sur, grid, set()), 10)])
    roots = sur.denominator_roots()
    assert len(roots) == 3
    cell = 100.0 ** (1 / 4999)  # relative grid spacing
    for root in roots:
        assert abs(root.real) <= 1e-8 * abs(root)
        assert min(abs(z - root) for z in pts) <= 3 * abs(root) * (cell - 1)


def test_random_points_deterministic_and_in_range():
    cfg = cfg_with("randomized", n_random=64)
    a = random_test_points(cfg)
    b = random_test_points(cfg)
    assert a == b
    for z in a:
        assert cfg.f_min <= z.imag <= cfg.f_max
        assert z.real == 0.0


def test_random_points_log_uniform_ks():
    cfg = GreedyConfig(
        f_min=1.0,
        f_max=1e4,
        termination=TerminationRule(kind="randomized", n_random=10_000),
        seed=7,
    )
    logf = np.sort(np.log([z.imag for z in random_test_points(cfg)]))
    u = (logf - math.log(cfg.f_min)) / (math.log(cfg.f_max) - math.log(cfg.f_min))
    n = u.size
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    ks = max(np.max(ecdf_hi - u), np.max(u - ecdf_lo))
    assert ks <= 0.02


# -- the driver ------------------------------------------------------------


def test_exact_recovery_terminates_immediately():
    # oracle already rational of low order: the first lookahead test passes
    def oracle(z):
        return rational_11(z)

    cfg = cfg_with("lookahead", tol=1e-3, max_samples=30)
    trace = run_greedy(oracle, cfg)
    assert trace.termination_reason == "lookahead"
    # type [1/1] is representable once 2 support points exist
    assert len(trace.samples) <= 6
    assert trace.records[-1].estimator <= 1e-10


def test_synthetic_order4_convergence():
    cfg = cfg_with("lookahead_memory", n_memory=2, tol=1e-3, max_samples=30)
    trace = run_greedy(order4_system(), cfg)
    assert trace.termination_reason == "lookahead_memory"
    assert len(trace.samples) <= 14
    grid = build_test_grid(cfg)
    sys = order4_system()
    sweep = trace.surrogate.eval_grid(grid)
    errs = [
        adjusted_relative_error(sys.eval_transfer(z), sweep[k], cfg.delta)
        for k, z in enumerate(grid)
    ]
    assert max(errs) <= cfg.tol


def test_first_sample_at_geometric_midpoint():
    cfg = cfg_with("max_count", max_samples=1)
    trace = run_greedy(order4_system(), cfg)
    grid = build_test_grid(cfg)
    nearest = grid[np.argmin(np.abs(grid.imag - 10.0))]
    assert trace.samples[0].z == complex(nearest)


def test_first_sample_walks_outward_past_resonant_points():
    # the 3 grid points nearest the midpoint resonate: the 4th nearest is
    # the first sample, and the 3 are banned nearest first
    cfg = cfg_with("max_count", max_samples=1)
    ranked = sorted((complex(z) for z in build_test_grid(cfg)), key=lambda z: abs(z.imag - 10.0))
    sys = order4_system()

    def oracle(z):
        if z in ranked[:3]:
            raise ResonanceError(z)
        return sys.eval_transfer(z)

    run = run_greedy(oracle, cfg)
    assert run.sampled_frequencies == [ranked[3]]
    assert run.resonances == ranked[:3]


def test_a_grid_resonant_everywhere_is_exhausted_after_one_call_a_point():
    cfg = cfg_with("lookahead", grid_size=50)
    requests = []

    def oracle(z):
        requests.append(z)
        raise ResonanceError(z)

    run = GreedyRun(oracle, cfg)
    with pytest.raises(GridExhaustedError, match="every grid point is sampled or banned"):
        run.run()
    assert len(requests) == 50
    assert sorted(run.resonances, key=lambda z: z.imag) == [complex(z) for z in build_test_grid(cfg)]


RULES = [
    ("max_count", {"max_samples": 6}),
    ("density", {"min_gap": 0.2, "max_samples": 40}),
    ("lookahead", {"max_samples": 40}),
    ("lookahead_memory", {"n_memory": 2, "max_samples": 40}),
    ("batch", {"n_batch": 3, "max_samples": 40}),
    ("randomized", {"n_random": 7, "max_samples": 40}),
]


@pytest.mark.parametrize("kind,kw", RULES)
def test_cost_ledger(kind, kw):
    cfg = cfg_with(kind, tol=1e-3, **kw)
    trace = run_greedy(order4_system(), cfg)
    assert trace.termination_reason == kind
    wasted = sum(r.test_calls for r in trace.records)
    if kind == "randomized":
        wasted += trace.n_random_solved
    assert trace.oracle_calls == len(trace.samples) + wasted
    if kind in ("lookahead", "lookahead_memory"):
        assert wasted == 1
    if kind in ("max_count", "density"):
        assert wasted == 0
    if kind == "randomized":
        assert wasted == cfg.termination.n_random
    if kind == "batch":
        assert all(r.test_calls <= cfg.termination.n_batch for r in trace.records)


def test_no_resampling():
    cfg = cfg_with("lookahead", tol=1e-6, max_samples=25)
    trace = run_greedy(order4_system(3), cfg)
    zs = trace.sampled_frequencies
    assert len(zs) == len(set(zs))


def test_trace_determinism():
    cfg = cfg_with("randomized", n_random=11, tol=1e-3, max_samples=30, seed=5)
    a = run_greedy(order4_system(1), cfg)
    b = run_greedy(order4_system(1), cfg)
    assert a.sampled_frequencies == b.sampled_frequencies
    assert [r.estimator for r in a.records] == [r.estimator for r in b.records]
    assert a.termination_reason == b.termination_reason


def test_memory_semantics_against_flag_history():
    n_memory = 3
    cfg = cfg_with(
        "lookahead_memory", n_memory=n_memory, tol=5e-2, max_samples=40, grid_size=1000
    )
    trace = run_greedy(make_synthetic([2j, 5j, 11j, 23j, 47j, 80j], 4, m=2, p=2), cfg)
    flags = [r.flag for r in trace.records]
    if trace.termination_reason == "lookahead_memory":
        assert all(flags[-n_memory:])
        # no earlier window of n_memory consecutive successes
        for k in range(len(flags) - n_memory):
            assert not all(flags[k : k + n_memory])


def flaky_oracle(sys, failures, f=10.0):
    """sys's transfer function, resonant at its first three calls within 0.5 of f."""

    def flaky(z):
        H = sys.eval_transfer(z)
        if abs(z.imag - f) < 0.5 and len(failures) < 3:
            failures.append(z)
            raise ResonanceError(z)
        return H

    return flaky


def test_resonance_points_are_skipped():
    failures = []
    cfg = cfg_with("lookahead", tol=1e-3, max_samples=30)
    trace = run_greedy(flaky_oracle(order4_system(2), failures), cfg)
    assert trace.termination_reason in ("lookahead", "max_samples")
    assert set(trace.resonances) == set(failures)
    assert not (set(trace.sampled_frequencies) & set(failures))
    assert_replays_through_next_point(trace, cfg)


def assert_replays_through_next_point(trace, cfg):
    """Each chosen point is next_point's pick on that iteration's surrogate."""
    grid = build_test_grid(cfg)
    banned = set(trace.resonances)
    zs = trace.sampled_frequencies
    chosen = 0
    for rec, sur in zip(trace.records, trace.surrogates):
        if math.isnan(rec.chosen.real):
            continue
        excluded = set(zs[: rec.n_samples]) | banned
        assert rec.chosen == grid[next_point(reference_indicator(sur, grid, excluded))]
        if rec.n_samples < len(zs):
            assert zs[rec.n_samples] == rec.chosen
        chosen += 1
    assert chosen >= len(zs) - 1


@pytest.mark.filterwarnings("ignore:MRI with fewer")
@pytest.mark.parametrize("fitter", ["loewner", "mri"])
@pytest.mark.parametrize("kind,kw", RULES)
def test_samples_replay_through_next_point(kind, kw, fitter):
    cfg = cfg_with(kind, tol=1e-3, fitter=fitter, **kw)
    assert_replays_through_next_point(run_greedy(order4_system(), cfg), cfg)


@pytest.fixture
def checked_columns(monkeypatch):
    """Swap the driver's Cauchy cache for one that checks every indicator.

    Each indicator must match the full reference sweep on the rows it
    keeps, and exclude exactly the grid indices sampled or banned so far.
    Returns the list of caches the driver builds.
    """
    made = []

    class Checked(kernels.CauchyColumns):
        def __init__(self, grid):
            super().__init__(grid)
            self.added, self.banned, self.sweeps = [], [], 0
            made.append(self)

        def add(self, zeta):
            super().add(zeta)
            self.added.append(complex(zeta))

        def ban(self, k):
            super().ban(k)
            self.banned.append(k)

        def indicator(self, sur):
            ind = super().indicator(sur)
            keep = ~self.excluded
            grid = self.grid[keep]
            ref = kernels.indicator_sweep(grid, sur.support, sur.coeffs)
            # The two sides add the same terms in another order, so |Q|
            # agrees to rounding of the terms' magnitudes, not of |Q|
            # itself, which is small where the terms cancel near a root.
            scale = np.abs(sur.coeffs[None, :] / (grid[:, None] - sur.support[None, :])).sum(axis=1)
            assert np.all(np.abs(1.0 / ind[keep] - 1.0 / ref) <= 1e-12 * scale)
            assert np.all(ind[~keep] == -1.0)
            taken = {int(np.flatnonzero(self.grid == z)[0]) for z in self.added}
            assert set(np.flatnonzero(self.excluded).tolist()) == taken | set(self.banned)
            self.sweeps += 1
            return ind

    monkeypatch.setattr(kernels, "CauchyColumns", Checked)
    return made


@pytest.mark.filterwarnings("ignore:MRI with fewer")
@pytest.mark.parametrize("kind", [kind for kind, _ in RULES])
@pytest.mark.parametrize("fitter", ["loewner", "mri"])
def test_cached_indicator_matches_reference_sweep(checked_columns, fitter, kind):
    failures = []
    cfg = cfg_with(kind, tol=1e-3, fitter=fitter, **dict(RULES)[kind])
    trace = run_greedy(flaky_oracle(order4_system(2), failures), cfg)
    (cache,) = checked_columns
    grid = build_test_grid(cfg)
    assert failures and trace.resonances == failures
    assert cache.added == trace.sampled_frequencies
    assert [complex(grid[k]) for k in cache.banned] == trace.resonances
    assert cache.sweeps == trace.n_iterations  # one sweep per iteration


def surrogate_bytes(sur):
    return sur.support.tobytes(), sur.values.tobytes(), sur.coeffs.tobytes()


@pytest.mark.filterwarnings("ignore:MRI with fewer")
@pytest.mark.parametrize("kind", [kind for kind, _ in RULES])
@pytest.mark.parametrize("fitter", ["loewner", "mri"])
def test_driver_fits_match_the_list_path_and_own_their_arrays(monkeypatch, fitter, kind):
    # the driver fits a gathered copy of its sorted store; the public list
    # path on the same samples must give the same bytes, and no surrogate
    # may change after its fit, as one that shared a store buffer could
    fitted = []
    raw_fit = greedy.fit

    def recorded(samples, method):
        sur = raw_fit(samples, method)
        fitted.append(surrogate_bytes(sur))
        return sur

    monkeypatch.setattr(greedy, "fit", recorded)
    failures = []
    cfg = cfg_with(kind, tol=1e-3, fitter=fitter, **dict(RULES)[kind])
    trace = run_greedy(flaky_oracle(order4_system(2), failures), cfg)
    assert failures
    assert [surrogate_bytes(sur) for sur in trace.surrogates] == fitted
    for a, b in zip(trace.surrogates, trace.surrogates[1:]):
        assert not np.shares_memory(a.values, b.values)
    for sur in trace.surrogates:
        assert not np.shares_memory(sur.values, trace.store.values)
    for rec, sur in zip(trace.records, trace.surrogates):
        ref = fit(list(trace.samples[: rec.n_samples]), fitter)
        assert surrogate_bytes(ref) == surrogate_bytes(sur)


def test_cache_memory_follows_samples_not_cap(checked_columns):
    sizes = []
    for cap in (40, 400):
        trace = run_greedy(order4_system(), cfg_with("lookahead", tol=1e-3, max_samples=cap))
        assert trace.termination_reason == "lookahead"
        sizes.append(len(trace.samples))
    assert sizes[0] == sizes[1]
    assert [c.capacity for c in checked_columns] == [32 * math.ceil(sizes[0] / 32)] * 2


def test_batch_anchor_skips_resonant_test_point():
    sys = order4_system()
    cfg = cfg_with("batch", n_batch=3, tol=1e-3, max_samples=40)
    clean = run_greedy(sys, cfg)
    grid = build_test_grid(cfg)
    # the first iteration that checks more than one point
    for i, (rec, sur) in enumerate(zip(clean.records, clean.surrogates)):
        sampled = set(clean.sampled_frequencies[: rec.n_samples])
        pts = list(grid[batch_test_points(reference_indicator(sur, grid, sampled), 3)])
        if len(pts) > 1:
            break

    def flaky(z):
        if z == pts[0]:
            raise ResonanceError(z)
        return sys.eval_transfer(z)

    trace = run_greedy(flaky, cfg)
    rec, sur = trace.records[i], trace.surrogates[i]
    assert trace.resonances == [pts[0]]
    assert rec.anchor in pts[1:]
    err = adjusted_relative_error(sys.eval_transfer(rec.anchor), sur.eval(rec.anchor), cfg.delta)
    assert rec.estimator == err


@pytest.mark.filterwarnings("ignore:MRI with fewer")
@pytest.mark.parametrize("fitter", ["loewner", "mri"])
@pytest.mark.parametrize(
    "kind,kw",
    [
        ("lookahead", {}),
        ("lookahead_memory", {"n_memory": 2}),
        ("batch", {"n_batch": 5, "max_samples": 40}),
        ("randomized", {"n_random": 20, "max_samples": 40}),
    ],
)
def test_estimator_equals_recomputation_from_eval(kind, kw, fitter):
    # the run's estimate and a later eval at its anchor go through the same
    # barycentric sweep, and a row of a many-point sweep has the bits of a
    # one-point call, so they agree bit for bit, not only to rounding
    sys = make_synthetic([1j * f for f in (2, 5, 11, 19, 37, 53, 71, 90)], 1, m=2, p=2)
    cfg = cfg_with(kind, tol=1e-6, fitter=fitter, **kw)
    trace = run_greedy(sys, cfg)
    finite = [(rec, sur) for rec, sur in zip(trace.records, trace.surrogates) if math.isfinite(rec.estimator)]
    assert finite
    for rec, sur in finite:
        err = adjusted_relative_error(sys.eval_transfer(rec.anchor), sur.eval(rec.anchor), cfg.delta)
        assert rec.estimator == err


def recording_oracle(oracle, requests):
    """oracle, with every z it is asked for appended to requests."""

    def recorded(z):
        requests.append(z)
        return oracle(z)

    return recorded


def first_sample_candidate(cfg):
    grid = build_test_grid(cfg)
    return complex(grid[np.argmin(np.abs(grid.imag - math.sqrt(cfg.f_min * cfg.f_max)))])


def assert_ledger(trace, cfg):
    overhead = sum(r.test_calls for r in trace.records)
    if cfg.termination.kind == "randomized":
        overhead += trace.n_random_solved
    assert trace.oracle_calls == len(trace.samples) + overhead


@pytest.mark.filterwarnings("ignore:MRI with fewer")
@pytest.mark.parametrize("fitter", ["loewner", "mri"])
@pytest.mark.parametrize("kind,kw", RULES)
def test_no_frequency_is_solved_twice(kind, kw, fitter):
    requests = []
    cfg = cfg_with(kind, tol=1e-3, fitter=fitter, **kw)
    trace = run_greedy(recording_oracle(order4_system().eval_transfer, requests), cfg)
    assert trace.termination_reason == kind
    assert len(requests) == len(set(requests))
    assert trace.oracle_calls == len(requests)
    assert_ledger(trace, cfg)


@pytest.mark.parametrize("kind", ["lookahead", "batch"])
def test_no_frequency_is_solved_twice_with_resonances(kind):
    failures, requests = [], []
    cfg = cfg_with(kind, n_batch=3, tol=1e-3, max_samples=40)
    trace = run_greedy(recording_oracle(flaky_oracle(order4_system(2), failures), requests), cfg)
    assert failures and trace.resonances == failures
    assert len(requests) == len(set(requests))
    assert trace.oracle_calls == len(requests) - len(failures)
    assert_ledger(trace, cfg)


def test_randomized_ledger_charges_only_solved_random_points():
    # the first frozen point resonates: it is dropped and not charged
    failures, requests = [], []
    cfg = cfg_with("randomized", n_random=9, tol=1e-3, max_samples=40)
    first = random_test_points(cfg)[0]
    assert abs(first.imag - 10.0) > 1.0  # away from the first sample
    oracle = flaky_oracle(order4_system(), failures, first.imag)
    trace = run_greedy(recording_oracle(oracle, requests), cfg)
    assert trace.termination_reason == "randomized"
    assert failures[0] == first and trace.resonances == failures
    assert trace.n_random_solved == cfg.termination.n_random - 1
    recorded = sum(r.test_calls for r in trace.records)
    assert trace.oracle_calls == len(trace.samples) + recorded + trace.n_random_solved
    assert trace.oracle_calls == len(requests) - len(failures)


def test_randomized_with_every_frozen_point_resonant_runs_to_the_cap():
    # no test point is left, so no estimate exists and the rule never fires
    cfg = cfg_with("randomized", n_random=2, tol=1e-3, max_samples=8)
    frozen = random_test_points(cfg)
    sys = order4_system()

    def oracle(z):
        if z in frozen:
            raise ResonanceError(z)
        return sys.eval_transfer(z)

    trace = run_greedy(oracle, cfg)
    assert trace.termination_reason == "max_samples"
    assert trace.resonances == frozen and trace.n_random_solved == 0
    assert all(math.isnan(r.estimator) and not r.flag for r in trace.records)
    assert trace.oracle_calls == len(trace.samples) == cfg.max_samples


def batch_prefix(errs, tol):
    """How many of a batch's ordered test errors its check solves: up to the first >= tol."""
    return next((i + 1 for i, e in enumerate(errs) if not e < tol), len(errs))


def estimator_test_points(kind, rec, sur, cfg, sampled):
    """The points an estimator rule tests on one iteration of a clean run."""
    if kind == "randomized":
        return random_test_points(cfg)
    if kind == "batch":
        grid = build_test_grid(cfg)
        ks = batch_test_points(reference_indicator(sur, grid, sampled), cfg.termination.n_batch)
        return list(grid[ks])
    return [rec.anchor]


@pytest.mark.filterwarnings("ignore:MRI with fewer")
@pytest.mark.parametrize("kind", ["lookahead", "lookahead_memory", "batch", "randomized"])
@pytest.mark.parametrize("fitter", ["loewner", "mri"])
def test_estimator_sweeps_its_test_points_once_per_iteration(monkeypatch, fitter, kind):
    sys = order4_system()
    cfg = cfg_with(kind, tol=1e-3, fitter=fitter, **dict(RULES)[kind])
    sweeps = []
    eval_grid = BarycentricSurrogate.eval_grid

    def counted(self, grid):
        sweeps.append(list(grid))
        return eval_grid(self, grid)

    def pointwise(self, z):
        raise AssertionError(f"{kind} evaluated the surrogate point by point")

    monkeypatch.setattr(BarycentricSurrogate, "eval_grid", counted)
    monkeypatch.setattr(BarycentricSurrogate, "eval", pointwise)
    trace = run_greedy(sys, cfg)
    monkeypatch.undo()
    assert trace.termination_reason == kind
    zs = trace.sampled_frequencies
    tested = [
        estimator_test_points(kind, rec, sur, cfg, set(zs[: rec.n_samples]))
        for rec, sur in zip(trace.records, trace.surrogates)
    ]
    assert sweeps == tested  # one sweep per iteration, over exactly the test points
    # a row of a many-point sweep has the bits of a one-point eval
    for rec, sur, pts in zip(trace.records, trace.surrogates, tested):
        errs = [adjusted_relative_error(sys.eval_transfer(z), sur.eval(z), cfg.delta) for z in pts]
        if kind == "batch":
            # a failing batch check stops at its first failing point
            errs = errs[: batch_prefix(errs, cfg.tol)]
        assert rec.estimator == max(errs)


@pytest.mark.parametrize("kind,kw", RULES)
def test_the_cap_solves_only_samples_and_test_points(kind, kw):
    # at the cap the next greedy point is named but not solved; lookahead's
    # probe and batch's test points decide the rule, so they are solved
    requests = []
    kw = {**kw, "max_samples": 7}
    if kind == "density":
        kw["min_gap"] = 1e-3  # RULES' gap stops density before the cap
    cfg = cfg_with(kind, tol=1e-14, **kw)
    trace = run_greedy(recording_oracle(order4_system().eval_transfer, requests), cfg)
    assert trace.termination_reason == ("max_count" if kind == "max_count" else "max_samples")
    zs = trace.sampled_frequencies
    allowed = set(zs)
    if kind in ("lookahead", "lookahead_memory", "batch", "randomized"):
        for rec, sur in zip(trace.records, trace.surrogates):
            allowed |= set(estimator_test_points(kind, rec, sur, cfg, set(zs[: rec.n_samples])))
    assert set(requests) <= allowed
    assert len(requests) == trace.oracle_calls
    assert_ledger(trace, cfg)
    last = trace.records[-1]
    if kind in ("randomized", "density"):
        assert last.test_calls == 0 and last.chosen not in requests


def test_density_stops_before_solving_the_close_point():
    requests = []
    cfg = cfg_with("density", min_gap=0.2, tol=1e-3, max_samples=40)
    trace = run_greedy(recording_oracle(order4_system().eval_transfer, requests), cfg)
    assert trace.termination_reason == "density"
    last = trace.records[-1]
    logf = np.log10([z.imag for z in trace.sampled_frequencies])
    assert np.min(np.abs(np.log10(last.chosen.imag) - logf)) < 0.2
    assert last.chosen not in requests
    assert [r.test_calls for r in trace.records] == [0] * trace.n_iterations
    assert trace.oracle_calls == last.oracle_calls == len(trace.samples) == len(requests)


def test_batch_ledger_charges_each_test_point_once():
    # each iteration solves the ordered prefix of its test points up to and
    # including the first that fails tol, then the greedy pick if that is
    # new; a point tested in several iterations is solved and charged once
    requests = []
    sys = order4_system()
    cfg = cfg_with("batch", n_batch=3, tol=1e-3, max_samples=40)
    trace = run_greedy(recording_oracle(sys.eval_transfer, requests), cfg)
    assert trace.termination_reason == "batch"
    grid = build_test_grid(cfg)
    training = set(trace.sampled_frequencies)
    done = [trace.samples[0].z]
    cut_short = 0
    for rec, sur in zip(trace.records, trace.surrogates):
        sampled = set(trace.sampled_frequencies[: rec.n_samples])
        pts = list(grid[batch_test_points(reference_indicator(sur, grid, sampled), 3)])
        errs = [adjusted_relative_error(sys.eval_transfer(z), sur.eval(z), cfg.delta) for z in pts]
        n = batch_prefix(errs, cfg.tol)
        fresh = [z for z in pts[:n] if z not in done]
        assert requests[len(done) : len(done) + len(fresh)] == fresh
        assert rec.test_calls == len([z for z in fresh if z not in training])
        assert rec.estimator == pytest.approx(max(errs[:n]), rel=1e-12, abs=1e-15)
        done += fresh
        if not rec.flag and rec.chosen not in done:
            done.append(rec.chosen)
        assert rec.oracle_calls == len(done)
        cut_short += n < len(pts)
    assert requests == done
    assert trace.oracle_calls == len(done)
    assert cut_short  # some check stopped before its last point


def assert_batch_decisions_match_the_eager_check(sys, cfg):
    """Run batch and recheck every iteration's flag against all its test points.

    Stopping at the first failing point must leave every flag as the max
    over all the batch's points sets it, and the final passing check is
    that max and its argmax, recomputed here with direct solves. Returns
    how many checks a point after the first one decided.
    """
    trace = run_greedy(sys, cfg)
    grid = build_test_grid(cfg)
    decided_later = 0
    for rec, sur in zip(trace.records, trace.surrogates):
        sampled = set(trace.sampled_frequencies[: rec.n_samples])
        ks = batch_test_points(reference_indicator(sur, grid, sampled), cfg.termination.n_batch)
        pts = list(grid[ks])
        errs = [
            adjusted_relative_error(sys.eval_transfer(z), a, cfg.delta)
            for z, a in zip(pts, sur.eval_grid(pts))
        ]
        j = int(np.argmax(errs))
        assert rec.flag == (errs[j] < cfg.tol)
        decided_later += errs[0] < cfg.tol <= errs[j]
    if rec.flag:
        assert (rec.estimator, rec.anchor) == (errs[j], pts[j])
    return trace, decided_later


@pytest.mark.filterwarnings("ignore:MRI with fewer")
@pytest.mark.parametrize("fitter", ["loewner", "mri"])
@pytest.mark.parametrize("n_batch", [1, 3, 5])
def test_batch_decisions_match_the_eager_check(fitter, n_batch):
    # output-only MRI with more samples than p*m runs to the cap
    sys = make_synthetic([1j * f for f in (2, 5, 11, 19, 37, 53, 71, 90)], 1, m=2, p=2)
    cfg = cfg_with("batch", n_batch=n_batch, tol=1e-6, fitter=fitter, max_samples=60)
    trace, _ = assert_batch_decisions_match_the_eager_check(sys, cfg)
    assert trace.termination_reason == ("batch" if fitter == "loewner" else "max_samples")


def test_batch_decisions_match_the_eager_check_past_a_passing_pick():
    # on the RLC line one check passes at its first point, the greedy pick,
    # and fails at a later one: it must still fail
    cfg = cfg_with("batch", n_batch=3, tol=1e-3, f_min=1e7, f_max=1e10, max_samples=60)
    trace, decided_later = assert_batch_decisions_match_the_eager_check(rlc_line(), cfg)
    assert trace.termination_reason == "batch"
    assert decided_later


@pytest.mark.parametrize("kind,kw", RULES)
def test_non_finite_replies_are_banned(kind, kw):
    cfg = cfg_with(kind, tol=1e-3, **kw)
    grid = build_test_grid(cfg)
    sys = order4_system()
    # the first-sample candidate, the grid end every rule tests or picks
    # first, and the grid point nearest the pole at f = 30
    near_pole = complex(grid[np.argmin(np.abs(grid.imag - 30))])
    bad = {first_sample_candidate(cfg), complex(grid[-1]), near_pole}
    requests = []

    def nan_oracle(z):
        H = sys.eval_transfer(z)
        if z in bad:
            H = H.copy()
            H[0, 1] = math.nan
        return H

    trace = run_greedy(recording_oracle(nan_oracle, requests), cfg)
    assert trace.termination_reason == kind
    assert trace.resonances == [z for z in requests if z in bad]
    assert {first_sample_candidate(cfg), complex(grid[-1])} <= set(trace.resonances)
    assert not (set(trace.sampled_frequencies) & bad)
    assert trace.oracle_calls == len(requests) - len(trace.resonances)
    assert_ledger(trace, cfg)
    if kind == "batch":
        # the one test point of the first iteration is the NaN grid end
        first = trace.surrogates[0]
        first_pts = batch_test_points(reference_indicator(first, grid, {trace.samples[0].z}), 3)
        assert list(grid[first_pts]) == [complex(grid[-1])]
        assert all(not math.isnan(r.estimator) for r in trace.records[1:])


def test_reply_shape_change_is_rejected():
    sys = order4_system()
    calls = []

    def shrinking(z):
        calls.append(z)
        H = sys.eval_transfer(z)
        return H[:1] if len(calls) == 3 else H

    shapes = r"shape \(1, 2\), but the first reply had shape \(2, 2\)"
    with pytest.raises(GreedyratError, match=shapes) as info:
        run_greedy(shrinking, cfg_with("lookahead", tol=1e-3, max_samples=40))
    assert f"z = {calls[2]}" in str(info.value)


# the six rules on the spring chain, each making well over 7 solves
CHAIN_RULES = [
    ("max_count", {"max_samples": 12}),
    ("density", {"min_gap": 1e-3, "max_samples": 12}),
    ("lookahead", {"max_samples": 40}),
    ("lookahead_memory", {"n_memory": 2, "max_samples": 40}),
    ("batch", {"n_batch": 3, "max_samples": 40}),
    ("randomized", {"n_random": 7, "max_samples": 40}),
]


@pytest.mark.parametrize("k", [1, 7])
@pytest.mark.parametrize("kind,kw", CHAIN_RULES)
def test_an_oracle_that_raises_leaves_the_run_holding_its_work(kind, kw, k):
    sys = spring_chain()
    cfg = cfg_with(kind, f_min=1e-2, f_max=3.0, tol=1e-3, **kw)
    clean = run_greedy(sys, cfg)
    assert len(clean.store.solves) > k and not clean.resonances
    calls = []

    def dies_at_call_k(z):
        calls.append(z)
        if len(calls) == k:
            raise RuntimeError("solver died")
        return sys.eval_transfer(z)

    run = GreedyRun(dies_at_call_k, cfg)  # solves nothing
    with pytest.raises(RuntimeError, match="solver died"):
        run.run()
    assert list(run.store.solves) == list(clean.store.solves)[: k - 1]
    # the k-th call fell in the iteration of the clean run's k-th solve,
    # and every iteration before it left its record and surrogate
    failed_in = list(clean.store.solves.values())[k - 1][1]
    assert run.iteration == failed_in
    assert len(run.records) == max(failed_in - 1, 0)
    for rec, ref in zip(run.records, clean.records):
        for name in ("iteration", "n_samples", "chosen", "flag", "n_memory", "oracle_calls"):
            assert getattr(rec, name) == getattr(ref, name)
    assert len(run.surrogates) in (len(run.records), len(run.records) + 1)
    assert run.termination_reason == "" and not run.hit_safety_cap


def recomputed_test_calls(run):
    """Each record's test_calls, recomputed: the solves first made in its
    iteration at frequencies that have not joined training."""
    training = set(run.sampled_frequencies)
    its = [it for z, (_, it) in run.store.solves.items() if z not in training]
    return [its.count(rec.iteration) for rec in run.records]


@pytest.mark.parametrize("k", [74, 100, 136])
def test_a_run_that_raises_keeps_the_ledger_over_its_finished_records(k):
    sys = spring_chain()
    cfg = cfg_with("batch", f_min=1e-2, f_max=3.0, tol=1e-3, n_batch=3, max_samples=200)
    calls = []

    def dies_at_call_k(z):
        calls.append(z)
        if len(calls) == k:
            raise RuntimeError("solver died")
        return sys.eval_transfer(z)

    run = GreedyRun(dies_at_call_k, cfg)
    with pytest.raises(RuntimeError, match="solver died"):
        run.run()
    assert run.records
    test_calls = [rec.test_calls for rec in run.records]
    assert run.records[-1].oracle_calls == len(run.samples) + sum(test_calls) + run.n_random_solved
    assert test_calls == recomputed_test_calls(run)


def test_a_finished_run_runs_and_steps_no_further():
    run = run_greedy(order4_system(), cfg_with("lookahead", tol=1e-3, max_samples=40))
    samples, records = run.sampled_frequencies, list(run.records)
    with pytest.raises(GreedyratError, match="first sample"):
        run.run()
    with pytest.raises(GreedyratError, match="has stopped"):
        run.step()
    assert run.sampled_frequencies == samples and run.records == records


def test_a_run_steps_no_further_after_a_step_raised():
    sys = order4_system()
    calls = []

    def dies_at_call_5(z):
        calls.append(z)
        if len(calls) == 5:
            raise RuntimeError("solver died")
        return sys.eval_transfer(z)

    run = GreedyRun(dies_at_call_5, cfg_with("lookahead", tol=1e-3, max_samples=40))
    with pytest.raises(RuntimeError, match="solver died"):
        run.run()
    # the failed iteration has no record, so a further step would charge
    # its solves to the wrong one
    assert run.iteration == len(run.records) + 1
    with pytest.raises(GreedyratError, match="has raised"):
        run.step()
    with pytest.raises(GreedyratError, match="first sample"):
        run.run()
    assert len(calls) == 5


def test_a_run_steps_only_after_its_first_sample():
    run = GreedyRun(order4_system(), cfg_with("lookahead", tol=1e-3))
    with pytest.raises(GreedyratError, match="no first sample"):
        run.step()
    assert not run.store.solves and not run.records


def test_safety_cap_applies():
    cfg = cfg_with("lookahead", tol=1e-14, max_samples=8)
    trace = run_greedy(order4_system(), cfg)
    if trace.termination_reason == "max_samples":
        assert len(trace.samples) == 8
        assert trace.hit_safety_cap


# -- estimator curve -------------------------------------------------------


def test_estimator_curve_interpolates_anchor():
    sur = random_surrogate(5, 6, scale=50.0)
    grid = build_test_grid(GreedyConfig(f_min=1.0, f_max=100.0, grid_size=512))
    anchor = complex(grid[100])
    eta = estimator_curve(sur, 3.5e-4, anchor, grid)
    assert eta[100] == pytest.approx(3.5e-4, rel=1e-12)


def test_estimator_curve_linear_in_estimate():
    sur = random_surrogate(5, 7, scale=50.0)
    grid = build_test_grid(GreedyConfig(f_min=1.0, f_max=100.0, grid_size=128))
    anchor = complex(grid[30])
    a = estimator_curve(sur, 1e-3, anchor, grid)
    b = estimator_curve(sur, 2e-3, anchor, grid)
    assert np.allclose(b, 2 * a, rtol=1e-13)

