import math

import numpy as np
import pytest

from conftest import random_surrogate
from greedyrat import BarycentricSurrogate, kernels


def cases():
    for seed, s, p, m in [(0, 3, 1, 1), (1, 6, 2, 2), (2, 10, 3, 2)]:
        sur = random_surrogate(s, seed, p=p, m=m)
        grid = np.linspace(-2, 2, 257) + 0.4j
        yield sur, grid


def test_denominator_inf_at_support_collision():
    sur = random_surrogate(4, 3)
    grid = np.concatenate([sur.support[:2], [0.5 + 0.5j]])
    out = kernels.abs_denominator(grid, sur.support, sur.coeffs)
    assert np.isinf(out[0]) and np.isinf(out[1])
    assert np.isfinite(out[2])


def test_indicator_zero_at_support_collision():
    sur = random_surrogate(4, 4)
    out = kernels.indicator_sweep(sur.support, sur.support, sur.coeffs)
    assert np.array_equal(out, np.zeros(4))


def test_eval_sweep_returns_sample_at_collision():
    sur = random_surrogate(4, 5, p=2, m=2)
    out = kernels.eval_sweep(sur.support, sur.support, sur.coeffs, sur.values)
    assert np.array_equal(out, sur.values)


# The two "numba_and_numpy" names date from when the kernels had a compiled
# twin; they now check the one numpy sweep against the barycentric formula
# written out point by point (the surrogate's scalar methods are one-point
# calls of the same sweep, so they would only compare it with itself).
@pytest.mark.parametrize("case", list(cases()), ids=["s3", "s6", "s10"])
def test_numba_and_numpy_paths_agree_on_denominator(case):
    sur, grid = case
    absq = kernels.abs_denominator(grid, sur.support, sur.coeffs)
    ind = kernels.indicator_sweep(grid, sur.support, sur.coeffs)
    ref_absq = np.array([abs(np.sum(sur.coeffs / (z - sur.support))) for z in grid])
    np.testing.assert_allclose(absq, ref_absq, rtol=1e-13)
    np.testing.assert_allclose(ind, 1.0 / ref_absq, rtol=1e-13)


@pytest.mark.parametrize("case", list(cases()), ids=["s3", "s6", "s10"])
def test_numba_and_numpy_paths_agree_on_eval(case):
    sur, grid = case
    vals = kernels.eval_sweep(grid, sur.support, sur.coeffs, sur.values)
    ref = []
    for z in grid:
        w = sur.coeffs / (z - sur.support)
        ref.append(sum(wj * vj for wj, vj in zip(w, sur.values)) / w.sum())
    np.testing.assert_allclose(vals, ref, rtol=1e-12, atol=1e-14)


def test_sweeps_match_scalar_reference():
    sur = random_surrogate(6, 6)
    grid = np.linspace(-1.5, 1.5, 101) + 0.25j
    absq = kernels.abs_denominator(grid, sur.support, sur.coeffs)
    for k in range(grid.size):
        ref = abs(np.sum(sur.coeffs / (grid[k] - sur.support)))
        assert absq[k] == pytest.approx(ref, rel=1e-13)


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
