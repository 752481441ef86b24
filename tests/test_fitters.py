import warnings

import numpy as np
import pytest

from conftest import rational_11
from greedyrat import fit_loewner, fit_mri, partition_samples
from greedyrat.fitters import loewner_matrix
from greedyrat.system_model import FrequencySample


def samples_at(zs, fn):
    return [FrequencySample(z, fn(z)) for z in zs]


def test_partition_single_sample():
    part = partition_samples(samples_at([1j], rational_11))
    assert [s.z for s in part.support] == [1j]
    assert part.test == []


def test_partition_alternates_sorted():
    zs = [1j, 2j, 3j, 4j, 5j]
    part = partition_samples(samples_at(zs, rational_11))
    assert [s.z for s in part.support] == [1j, 3j, 5j]
    assert [s.z for s in part.test] == [2j, 4j]


def test_partition_order_insensitive():
    zs = [3j, 1j, 5j, 4j, 2j]
    a = partition_samples(samples_at(zs, rational_11))
    b = partition_samples(samples_at(sorted(zs, key=lambda z: z.imag), rational_11))
    assert [s.z for s in a.support] == [s.z for s in b.support]
    assert [s.z for s in a.test] == [s.z for s in b.test]


def test_partition_rejects_duplicates():
    with pytest.raises(ValueError, match="distinct"):
        partition_samples(samples_at([1j, 1j], rational_11))


def test_loewner_recovers_type_11():
    part = partition_samples(samples_at([1j, 2j, 3j, 4j], rational_11))
    sur = fit_loewner(part)
    L = loewner_matrix(part)
    assert np.linalg.norm(L @ sur.coeffs) <= 1e-12
    rng = np.random.default_rng(0)
    for z in rng.uniform(0.5, 10, 50) * 1j:
        exact = rational_11(z)
        assert np.linalg.norm(sur.eval(z) - exact) <= 1e-10 * np.linalg.norm(exact)


def test_loewner_single_support():
    sur = fit_loewner(partition_samples(samples_at([1j], rational_11)))
    assert sur.coeffs == pytest.approx(np.array([1.0 + 0j]))
    assert sur.eval(5j) == pytest.approx(rational_11(1j))


@pytest.mark.parametrize("seed", range(5))
def test_loewner_normalization_contract(seed):
    rng = np.random.default_rng(seed)
    zs = 1j * np.sort(rng.uniform(1, 100, 7))
    fn = lambda z: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    sur = fit_loewner(partition_samples(samples_at(zs, fn)))
    assert np.linalg.norm(sur.coeffs) == pytest.approx(1.0, abs=1e-13)
    top = sur.coeffs[np.argmax(np.abs(sur.coeffs))]
    assert top.imag == pytest.approx(0.0, abs=1e-13)
    assert top.real > 0


@pytest.mark.parametrize("seed", range(5))
def test_loewner_is_global_minimizer_on_sphere(seed):
    rng = np.random.default_rng(seed + 20)
    zs = 1j * np.sort(rng.uniform(1, 50, 9))
    fn = lambda z: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    part = partition_samples(samples_at(zs, fn))
    sur = fit_loewner(part)
    L = loewner_matrix(part)
    best = np.linalg.norm(L @ sur.coeffs)
    for _ in range(20):
        u = rng.standard_normal(len(part.support)) + 1j * rng.standard_normal(len(part.support))
        u /= np.linalg.norm(u)
        assert best <= np.linalg.norm(L @ u) + 1e-12


def test_loewner_interpolates_support():
    part = partition_samples(samples_at([1j, 2j, 3j, 4j, 5j], rational_11))
    sur = fit_loewner(part)
    for s in part.support:
        assert np.array_equal(sur.eval(s.z), s.value)


def test_mri_single_sample():
    sur = fit_mri(samples_at([1j], rational_11))
    assert sur.coeffs == pytest.approx(np.array([1.0 + 0j]))


def test_mri_identical_values_null_vector():
    M = np.array([[1.0 + 2j, 0.5], [0.0, 3.0]])
    sur = fit_mri([FrequencySample(1j, M), FrequencySample(2j, M)])
    # exact null vector (1, -1)/sqrt(2) up to the phase rule
    assert np.abs(sur.coeffs) == pytest.approx(np.array([1.0, 1.0]) / np.sqrt(2), abs=1e-13)
    assert np.linalg.norm(sur.coeffs[0] * M + sur.coeffs[1] * M) <= 1e-13


@pytest.mark.parametrize("seed", range(3))
def test_mri_objective_matches_svd_oracle(seed):
    from greedyrat import make_synthetic

    sys = make_synthetic([1j, 4j, 9j], seed, m=3, p=3)  # p*m = 9 >= S
    zs = 1j * np.array([2.0, 3.0, 6.0, 8.0, 12.0])
    samples = [sys.sample(z) for z in zs]
    sur = fit_mri(samples)
    objective = np.linalg.norm(np.tensordot(sur.coeffs, np.array([s.value for s in samples]), 1))
    M = np.column_stack([s.value.ravel() for s in samples])
    smallest = np.linalg.svd(M, compute_uv=False)[-1]
    assert objective == pytest.approx(smallest, rel=1e-12, abs=1e-12)


def test_mri_warns_when_value_block_is_small():
    with pytest.warns(UserWarning, match="spurious"):
        fit_mri(samples_at([1j, 2j, 3j], rational_11))


def test_mri_warns_once_per_greedy_run():
    # 2x2 blocks against eight poles: every fit past four samples is flagged.
    from greedyrat import GreedyConfig, TerminationRule, make_synthetic, run_greedy

    poles = [-0.05 + 1j * f for f in (1.5, 3.0, 6.0, 12.0, 20.0, 35.0, 60.0, 90.0)]
    cfg = GreedyConfig(f_min=1.0, f_max=100.0, grid_size=2000, fitter="mri", max_samples=40,
                       termination=TerminationRule("lookahead"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        trace = run_greedy(make_synthetic(poles, 0, m=2, p=2), cfg)
    assert len(trace.samples) > 10
    assert [str(w.message) for w in caught] == [
        "MRI with fewer value entries per sample than samples: the minimizer may be spurious"
    ]


def test_fit_determinism():
    zs = [1j, 2j, 3j, 4j, 5j, 6j]
    a = fit_loewner(partition_samples(samples_at(zs, rational_11)))
    b = fit_loewner(partition_samples(samples_at(zs, rational_11)))
    assert np.array_equal(a.coeffs, b.coeffs)


@pytest.mark.parametrize("k", [2, 3])
def test_exact_recovery_type_kk(k):
    rng = np.random.default_rng(k)
    poles = -rng.uniform(0.5, 5, k) + 1j * rng.uniform(1, 50, k)
    res = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    d = 1.0 + 0.5j

    def target(z):
        return np.array([[d + np.sum(res / (z - poles))]])

    n_samples = 2 * k + 2
    zs = 1j * np.geomspace(1.0, 100.0, n_samples)
    sur = fit_loewner(partition_samples(samples_at(zs, target)))
    for f in np.geomspace(0.5, 200.0, 200):
        z = 1j * f
        exact = target(z)
        assert np.linalg.norm(sur.eval(z) - exact) <= 1e-8 * np.linalg.norm(exact)
