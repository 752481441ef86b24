import math

import numpy as np
import pytest

from conftest import random_surrogate
from greedyrat import BarycentricSurrogate, kernels


def cases():
    wide = np.linspace(-2, 2, 257) + 0.4j
    for seed, s, p, m, grid in [
        (0, 3, 1, 1, wide),
        (1, 6, 2, 2, wide),
        (2, 10, 3, 2, wide),
        (6, 6, 1, 1, np.linspace(-1.5, 1.5, 101) + 0.25j),
    ]:
        yield random_surrogate(s, seed, p=p, m=m), grid


CASE_IDS = ["s3", "s6", "s10", "s6-seed6"]


def test_denominator_inf_at_support_collision():
    sur = random_surrogate(4, 3)
    grid = np.concatenate([sur.support[:2], [0.5 + 0.5j]])
    out = kernels.abs_denominator(grid, sur.support, sur.coeffs)
    assert np.isinf(out[0]) and np.isinf(out[1])
    assert np.isfinite(out[2])


@pytest.mark.parametrize("zeta", [1j, 3.7j, 0.2 - 0.05j])
def test_snap_rule_is_the_same_at_every_scale(zeta):
    tol = abs(zeta) * kernels.SNAP_TOL
    distances = tol * np.array([0.0, 0.5, 0.999, 1.001, 2.0, 1e3])
    want = [True, True, True, False, False, False]
    for s in np.logspace(-12, 12, 25):
        assert kernels._collides(distances * s, zeta * s).tolist() == want


def test_a_node_at_zero_snaps_only_exact_hits():
    assert kernels._collides(0.0, 0.0)
    assert not kernels._collides(np.array([5e-324, 1e-300, 1e-13]), 0.0).any()


def test_indicator_zero_at_support_collision():
    sur = random_surrogate(4, 4)
    out = kernels.indicator_sweep(sur.support, sur.support, sur.coeffs)
    assert np.array_equal(out, np.zeros(4))


def test_eval_sweep_returns_sample_at_collision():
    sur = random_surrogate(4, 5, p=2, m=2)
    out = kernels.eval_sweep(sur.support, sur.support, sur.coeffs, sur.values)
    assert np.array_equal(out, sur.values)


# The sweeps against the barycentric formula written out point by point
# (the surrogate's scalar methods are one-point calls of the same sweep, so
# they would only compare it with itself).
@pytest.mark.parametrize("case", list(cases()), ids=CASE_IDS)
def test_denominator_sweeps_match_the_pointwise_formula(case):
    sur, grid = case
    absq = kernels.abs_denominator(grid, sur.support, sur.coeffs)
    ind = kernels.indicator_sweep(grid, sur.support, sur.coeffs)
    ref_absq = np.array([abs(np.sum(sur.coeffs / (z - sur.support))) for z in grid])
    np.testing.assert_allclose(absq, ref_absq, rtol=1e-13)
    np.testing.assert_allclose(ind, 1.0 / ref_absq, rtol=1e-13)


@pytest.mark.parametrize("case", list(cases()), ids=CASE_IDS)
def test_eval_sweep_matches_the_pointwise_formula(case):
    sur, grid = case
    vals = kernels.eval_sweep(grid, sur.support, sur.coeffs, sur.values)
    ref = []
    for z in grid:
        w = sur.coeffs / (z - sur.support)
        ref.append(sum(wj * vj for wj, vj in zip(w, sur.values)) / w.sum())
    np.testing.assert_allclose(vals, ref, rtol=1e-12, atol=1e-14)


def test_cauchy_columns_match_sweep_with_test_samples():
    # Seven samples, alternately support and test, as a Loewner partition
    # gives them: test samples keep their columns but carry weight 0.
    grid = 1j * np.geomspace(1.0, 100.0, 300)
    taken = [150, 20, 280, 75, 210, 5, 120]
    cache = kernels.CauchyColumns(grid)
    for k in taken:
        cache.add(grid[k])
    support = grid[sorted(taken)[0::2]]
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal(support.size) + 1j * rng.standard_normal(support.size)
    sur = BarycentricSurrogate(support, np.ones((support.size, 1, 1)), coeffs / np.linalg.norm(coeffs))
    ind = cache.indicator(sur)
    ref = kernels.indicator_sweep(grid, sur.support, sur.coeffs)
    assert np.array_equal(np.flatnonzero(cache.excluded), sorted(taken))
    assert np.all(ind[taken] == -1.0)
    np.testing.assert_allclose(ind[~cache.excluded], ref[~cache.excluded], rtol=1e-12)
    cache.ban(7)
    assert cache.indicator(sur)[7] == -1.0


def test_cauchy_columns_allocate_whole_blocks_as_samples_arrive():
    grid = 1j * np.geomspace(1.0, 100.0, 200)
    cache = kernels.CauchyColumns(grid)
    assert cache.capacity == 0
    for n, z in enumerate(grid[:70], start=1):
        cache.add(z)
        assert cache.capacity == 32 * math.ceil(n / 32)


def test_cauchy_columns_need_the_imaginary_axis():
    with pytest.raises(ValueError, match="imaginary axis"):
        kernels.CauchyColumns(np.linspace(1.0, 100.0, 50) + 0.25j)
    cache = kernels.CauchyColumns(1j * np.geomspace(1.0, 100.0, 50))
    with pytest.raises(ValueError, match="imaginary axis"):
        cache.add(0.25 + 2j)


def test_cauchy_columns_are_real_float64_blocks():
    grid = 1j * np.geomspace(1.0, 100.0, 300)
    cache = kernels.CauchyColumns(grid)
    for k in (10, 200):
        cache.add(grid[k])
    (block,) = cache._blocks
    assert block.dtype == np.float64 and block.flags.f_contiguous
    # column j times -i is the complex Cauchy column 1/(z - zeta_j)
    for j, k in enumerate((10, 200)):
        ref, _, _ = kernels._cauchy_weights(grid, [grid[k]], [1.0])
        np.testing.assert_allclose(-1j * block[:, j], ref[:, 0], rtol=1e-15)
        assert block[k, j] == 0.0


@pytest.mark.parametrize("s,p,m", [(6, 2, 2), (57, 2, 2), (10, 3000, 2)])
def test_eval_sweep_rows_equal_one_point_calls_bit_for_bit(s, p, m):
    # BLAS may sum a matrix product's rows in another order than a
    # vector product's; each row of the sweep must not depend on that
    rng = np.random.default_rng(s)
    support = 1j * np.sort(rng.uniform(1.0, 100.0, s))
    coeffs = rng.standard_normal(s) + 1j * rng.standard_normal(s)
    values = rng.standard_normal((s, p, m)) + 1j * rng.standard_normal((s, p, m))
    grid = 1j * np.geomspace(1.0, 100.0, 777)
    sweep = kernels.eval_sweep(grid, support, coeffs, values)
    for k in range(grid.size):
        assert np.array_equal(sweep[k], kernels.eval_sweep(grid[k : k + 1], support, coeffs, values)[0])
