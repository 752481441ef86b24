import numpy as np
import pytest

from conftest import random_surrogate
from greedyrat import kernels


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
# twin; they now check the one numpy sweep against the scalar surrogate
# methods at every grid point.
@pytest.mark.parametrize("case", list(cases()), ids=["s3", "s6", "s10"])
def test_numba_and_numpy_paths_agree_on_denominator(case):
    sur, grid = case
    absq = kernels.abs_denominator(grid, sur.support, sur.coeffs)
    ind = kernels.indicator_sweep(grid, sur.support, sur.coeffs)
    ref_absq = [abs(sur.eval_denominator(z)) for z in grid]
    np.testing.assert_allclose(absq, ref_absq, rtol=1e-13)
    np.testing.assert_allclose(ind, [sur.indicator(z) for z in grid], rtol=1e-13)


@pytest.mark.parametrize("case", list(cases()), ids=["s3", "s6", "s10"])
def test_numba_and_numpy_paths_agree_on_eval(case):
    sur, grid = case
    vals = kernels.eval_sweep(grid, sur.support, sur.coeffs, sur.values)
    np.testing.assert_allclose(vals, [sur.eval(z) for z in grid], rtol=1e-12, atol=1e-14)


def test_sweeps_match_scalar_reference():
    sur = random_surrogate(6, 6)
    grid = np.linspace(-1.5, 1.5, 101) + 0.25j
    absq = kernels.abs_denominator(grid, sur.support, sur.coeffs)
    for k in range(grid.size):
        ref = abs(np.sum(sur.coeffs / (grid[k] - sur.support)))
        assert absq[k] == pytest.approx(ref, rel=1e-13)
