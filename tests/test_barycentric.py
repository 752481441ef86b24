import tracemalloc

import numpy as np
import pytest

from conftest import expanded_numerator, match_multisets, random_surrogate, rational_11
from greedyrat import (
    BarycentricSurrogate,
    SupportCollisionError,
    SurrogatePoleError,
    fit,
)
from greedyrat.system_model import FrequencySample


def test_interpolates_support_exactly():
    sur = random_surrogate(5, 0, p=2, m=3)
    for j, z in enumerate(sur.support):
        assert np.array_equal(sur.eval(z), sur.values[j])


def test_single_node_is_constant():
    sur = BarycentricSurrogate([0.5j], np.array([[[3.0 + 1j]]]), [1.0])
    for z in (0.0, 10.0, -2j):
        assert sur.eval(z) == pytest.approx(np.array([[3.0 + 1j]]))


def test_reproduces_fitted_rational():
    zs = [1j * f for f in (1.0, 2.0, 5.0, 10.0)]
    samples = [FrequencySample(z, rational_11(z)) for z in zs]
    sur = fit(samples, "loewner")
    rng = np.random.default_rng(1)
    for z in rng.uniform(0.5, 20, 50) * 1j:
        exact = rational_11(z)
        got = sur.eval(z)
        assert np.linalg.norm(got - exact) <= 1e-10 * np.linalg.norm(exact)


def test_denominator_single_node():
    sur = BarycentricSurrogate([0.0], np.array([[[1.0]]]), [1.0])
    assert sur.eval_denominator(2.0) == pytest.approx(0.5)
    # Q = 1/z has no finite root, and the arrowhead needs two nodes
    with pytest.raises(ValueError, match="at least two support points"):
        sur.denominator_roots()


def test_denominator_symmetric_root():
    # Q(0) = (1/(0 + 1) + 1/(0 - 1)) / sqrt(2) is exactly 0, away from the
    # nodes: a pole of the surrogate
    sur = BarycentricSurrogate(
        [-1.0, 1.0], np.arange(8.0).reshape(2, 2, 2), np.array([1.0, 1.0]) / np.sqrt(2)
    )
    assert abs(sur.eval_denominator(0.0)) <= 1e-15
    with pytest.raises(SurrogatePoleError):
        sur.eval(0.0)
    block = sur.eval_grid([0.0])
    assert block.shape == (1, 2, 2) and np.all(np.isinf(block))
    assert sur.indicator(0.0) == np.inf


def test_denominator_errors_on_support_collision():
    sur = random_surrogate(3, 2)
    with pytest.raises(SupportCollisionError):
        sur.eval_denominator(sur.support[0])


@pytest.mark.parametrize("seed", range(5))
def test_denominator_matches_polynomial_ratio(seed):
    sur = random_surrogate(6, seed)
    num = expanded_numerator(sur.support, sur.coeffs)
    rng = np.random.default_rng(seed + 100)
    for z in rng.uniform(-2, 2, 20) + 1j * rng.uniform(-2, 2, 20):
        nodal = np.prod(z - sur.support)
        ref = abs(np.polyval(num, z)) / abs(nodal)
        assert abs(sur.eval_denominator(z)) == pytest.approx(ref, rel=1e-12)


def test_indicator_zero_at_support():
    sur = random_surrogate(4, 3)
    for z in sur.support:
        assert sur.indicator(z) == 0.0


def test_indicator_single_node_is_distance():
    sur = BarycentricSurrogate([1.0 + 0j], np.array([[[1.0]]]), [1.0])
    for z in (2.0, 1.0 + 3j, -4.0):
        assert sur.indicator(z) == pytest.approx(abs(z - 1.0))


def test_indicator_peaks_at_denominator_roots_on_grid():
    sur = random_surrogate(5, 8)
    roots = sur.denominator_roots()
    grid = np.linspace(-2, 2, 4001) + 0.31j  # line passing near the root box
    ind = sur.indicator_grid(grid)
    # near each root crossing, the grid maximum of the indicator must sit
    # at the grid point closest to the root
    for root in roots:
        if abs(root.imag - 0.31) < 0.02:  # only roots the line passes close to
            k = int(np.argmin(np.abs(grid - root)))
            lo = max(k - 20, 0)
            peak = lo + int(np.argmax(ind[lo : k + 21]))
            assert abs(peak - k) <= 1


def test_scale_invariance_of_eval():
    sur = random_surrogate(5, 4, p=2, m=2)
    # unit-modulus scalar keeps the norm constraint while changing the phase
    scaled = BarycentricSurrogate(sur.support, sur.values, sur.coeffs * np.exp(0.7j))
    rng = np.random.default_rng(5)
    for z in rng.uniform(-3, 3, 100) + 1j * rng.uniform(-3, 3, 100):
        a, b = sur.eval(z), scaled.eval(z)
        assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(a)


def test_roots_symmetric_pair():
    sur = BarycentricSurrogate(
        [-1.0, 1.0], np.zeros((2, 1, 1)), np.array([1.0, 1.0]) / np.sqrt(2)
    )
    roots = sur.denominator_roots()
    assert len(roots) == 1
    assert roots[0] == pytest.approx(0.0, abs=1e-12)


def test_roots_degree_drop():
    sur = BarycentricSurrogate(
        [-1.0, 1.0], np.zeros((2, 1, 1)), np.array([1.0, -1.0]) / np.sqrt(2)
    )
    assert sur.denominator_roots() == []


@pytest.mark.parametrize("seed", range(5))
def test_roots_match_companion_oracle(seed):
    sur = random_surrogate(6, seed + 50)
    num = expanded_numerator(sur.support, sur.coeffs)
    ref = np.roots(num)
    match_multisets(sur.denominator_roots(), ref, 1e-8)


@pytest.mark.parametrize("seed", range(5))
def test_root_consistency_and_degree_bound(seed):
    sur = random_surrogate(7, seed + 200)
    roots = sur.denominator_roots()
    assert len(roots) <= sur.n_support - 1
    for root in roots:
        dist = np.min(np.abs(root - sur.support))
        bound = 1e-8 * np.max(np.abs(sur.coeffs)) / dist
        assert abs(sur.eval_denominator(root)) <= bound


def test_rejects_duplicate_support():
    with pytest.raises(ValueError, match="distinct"):
        BarycentricSurrogate([1.0, 1.0], np.zeros((2, 1, 1)), np.array([1.0, 1.0]) / np.sqrt(2))


@pytest.mark.parametrize("support", [[3j, 1j, 2j, 1j], [1 + 1j, 1j, 1 + 1j], [0.0, 1j, complex(-0.0, -0.0)]])
def test_rejects_a_repeated_support_point_in_any_order(support):
    n = len(support)
    with pytest.raises(ValueError, match="support points must be pairwise distinct"):
        BarycentricSurrogate(support, np.zeros((n, 1, 1)), np.ones(n) / np.sqrt(n))


def test_a_1000_node_surrogate_builds_in_under_1_mib():
    # the repeat check sorts the support: no S-by-S array of distances
    n = 1000
    support = 1j * np.arange(1.0, n + 1)
    values = np.ones((n, 1, 1), dtype=np.complex128)
    coeffs = np.full(n, 1 / np.sqrt(n), dtype=np.complex128)
    tracemalloc.start()
    try:
        BarycentricSurrogate(support, values, coeffs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize(
    "values,coeffs,match",
    [
        (np.zeros((2, 1)), [0.6, 0.8], "one p-by-m block per support point"),
        (np.zeros((3, 1, 1)), [0.6, 0.8], "one p-by-m block per support point"),
        (np.zeros((2, 1, 1)), [1.0], "one coefficient per support point"),
    ],
)
def test_rejects_mismatched_shapes(values, coeffs, match):
    with pytest.raises(ValueError, match=match):
        BarycentricSurrogate([0.0, 1.0], values, coeffs)


def test_rejects_unnormalized_coeffs():
    with pytest.raises(ValueError, match="unit 2-norm"):
        BarycentricSurrogate([0.0, 1.0], np.zeros((2, 1, 1)), [1.0, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
@pytest.mark.parametrize("part", ["support", "coeffs", "values"])
def test_rejects_non_finite_input(part, bad):
    args = {"support": [1j, 2j], "values": np.ones((2, 1, 1)), "coeffs": np.array([1.0, 1.0]) / np.sqrt(2)}
    arr = np.array(args[part], dtype=np.complex128)
    arr.flat[0] = bad
    args[part] = arr
    with pytest.raises(ValueError, match="finite"):
        BarycentricSurrogate(**args)


def test_warns_on_near_zero_coefficient():
    with pytest.warns(UserWarning, match="near-zero"):
        BarycentricSurrogate([0.0, 1.0], np.zeros((2, 1, 1)), [1.0, 1e-16])


def test_serialization_round_trip(tmp_path):
    sur = random_surrogate(4, 9, p=2, m=3)
    path = tmp_path / "sur.json"
    extra = {"termination_reason": "lookahead", "sampled_f": [1.5, 2.5]}
    sur.save(path, extra=extra)
    back, back_extra = BarycentricSurrogate.load(path)
    assert back_extra == extra
    assert np.array_equal(back.support, sur.support)
    assert np.array_equal(back.coeffs, sur.coeffs)
    assert np.array_equal(back.values, sur.values)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_save_refuses_a_non_finite_extra_before_writing(tmp_path, value):
    # JSON has no NaN or Infinity, so save raises rather than write a file
    # a strict parser rejects
    path = tmp_path / "sur.json"
    with pytest.raises(ValueError):
        random_surrogate(4, 9).save(path, extra={"estimator_value": value})
    assert not path.exists()


def test_eval_grid_matches_scalar_eval():
    sur = random_surrogate(5, 10, p=2, m=2)
    grid = np.linspace(-2, 2, 64) + 0.5j
    sweep = sur.eval_grid(grid)
    for k, z in enumerate(grid):
        # the formula written out: eval itself is a one-point call of the sweep
        w = sur.coeffs / (z - sur.support)
        ref = sum(wj * vj for wj, vj in zip(w, sur.values)) / w.sum()
        assert np.allclose(sweep[k], ref, rtol=1e-12, atol=1e-14)
