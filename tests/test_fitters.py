import warnings

import numpy as np
import pytest

from conftest import rational_11
import greedyrat
from greedyrat import fit
from greedyrat.fitters import SampleArrays, _smallest_right_singular_vector, loewner_matrix
from greedyrat.system_model import FrequencySample


def samples_at(zs, fn):
    return [FrequencySample(z, fn(z)) for z in zs]


def test_every_exported_name_resolves():
    assert all(hasattr(greedyrat, name) for name in greedyrat.__all__)
    assert greedyrat.fit is greedyrat.fitters.fit


def test_partition_single_sample():
    samples = samples_at([1j], rational_11)
    assert list(fit(samples, "loewner").support) == [1j]
    assert loewner_matrix(samples).shape == (0, 1)  # no test rows


def test_partition_alternates_sorted():
    zs = [1j, 2j, 3j, 4j, 5j]
    samples = samples_at(zs, rational_11)
    assert list(fit(samples, "loewner").support) == [1j, 3j, 5j]
    # one row per test frequency 2j, 4j against the support 1j, 3j, 5j
    H = lambda z: rational_11(z)[0, 0]
    expected = [[(H(t) - H(z)) / (t - z) for z in (1j, 3j, 5j)] for t in (2j, 4j)]
    assert np.allclose(loewner_matrix(samples), expected, rtol=1e-14, atol=0)


def test_partition_order_insensitive():
    zs = [3j, 1j, 5j, 4j, 2j]
    a = fit(samples_at(zs, rational_11), "loewner")
    b = fit(samples_at(sorted(zs, key=lambda z: z.imag), rational_11), "loewner")
    assert list(a.support) == list(b.support) == [1j, 3j, 5j]
    assert np.array_equal(a.coeffs, b.coeffs)


def test_partition_rejects_duplicates():
    with pytest.raises(ValueError, match="distinct"):
        fit(samples_at([1j, 1j], rational_11), "loewner")


def test_mri_rejects_duplicates():
    # 2-by-2 blocks keep three samples within p*m, so MRI does not warn
    samples = samples_at([1j, 2j, 1j], lambda z: rational_11(z) * np.eye(2))
    with pytest.raises(ValueError, match="distinct"):
        fit(samples, "mri")


@pytest.mark.parametrize("method", ["loewner", "mri"])
def test_fit_rejects_repeated_frequencies(method):
    # a repeat on a test row would divide by zero in the Loewner matrix; the
    # check must come before any arithmetic, so every warning is an error here
    samples = [FrequencySample(z, [[1 / (z + 1)]]) for z in (1j, 2j, 2j, 3j)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="pairwise distinct"):
            fit(samples, method)


@pytest.mark.parametrize(
    "samples,method,match",
    [
        ([], "loewner", "at least one sample"),
        ([], "mri", "at least one sample"),
        ([FrequencySample(1j, [[1.0]])], "aaa", "unknown fitter 'aaa'"),
    ],
)
def test_fit_rejects_no_samples_and_unknown_methods(samples, method, match):
    with pytest.raises(ValueError, match=match):
        fit(samples, method)


def sample_arrays(zs):
    """SampleArrays at zs, in the order given, of a 3 x 3 rational function:
    9 entries a sample, so MRI fits up to 9 samples without a warning."""
    shifts = np.arange(1.0, 10.0).reshape(3, 3)
    return SampleArrays(np.array(zs), np.array([1 / (z + shifts) for z in zs]))


@pytest.mark.parametrize("method", ["loewner", "mri"])
def test_sample_arrays_fit_as_the_sorted_list(method):
    # samples in the order they joined, as the greedy driver holds them
    arrays = sample_arrays([10j, 3j, 31j, 1.5j, 7j, 55j, 2j, 19j])
    listed = sorted(arrays, key=lambda s: s.z.imag)
    a, b = fit(arrays, method), fit(listed, method)
    for name in ("support", "values", "coeffs"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


@pytest.mark.parametrize("method", ["loewner", "mri"])
def test_sample_arrays_with_a_repeated_frequency_are_rejected(method):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the fitter's own check, before the surrogate sees a repeated support point
        with pytest.raises(ValueError, match="sample frequencies must be pairwise distinct"):
            fit(sample_arrays([3j, 1j, 2j, 1j]), method)


def test_loewner_recovers_type_11():
    samples = samples_at([1j, 2j, 3j, 4j], rational_11)
    sur = fit(samples, "loewner")
    L = loewner_matrix(samples)
    assert np.linalg.norm(L @ sur.coeffs) <= 1e-12
    rng = np.random.default_rng(0)
    for z in rng.uniform(0.5, 10, 50) * 1j:
        exact = rational_11(z)
        assert np.linalg.norm(sur.eval(z) - exact) <= 1e-10 * np.linalg.norm(exact)


def test_loewner_single_support():
    sur = fit(samples_at([1j], rational_11), "loewner")
    assert sur.coeffs == pytest.approx(np.array([1.0 + 0j]))
    assert sur.eval(5j) == pytest.approx(rational_11(1j))


@pytest.mark.parametrize("seed", range(5))
def test_loewner_normalization_contract(seed):
    rng = np.random.default_rng(seed)
    zs = 1j * np.sort(rng.uniform(1, 100, 7))
    fn = lambda z: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    sur = fit(samples_at(zs, fn), "loewner")
    assert np.linalg.norm(sur.coeffs) == pytest.approx(1.0, abs=1e-13)
    top = sur.coeffs[np.argmax(np.abs(sur.coeffs))]
    assert top.imag == pytest.approx(0.0, abs=1e-13)
    assert top.real > 0


@pytest.mark.parametrize("seed", range(5))
def test_loewner_is_global_minimizer_on_sphere(seed):
    rng = np.random.default_rng(seed + 20)
    zs = 1j * np.sort(rng.uniform(1, 50, 9))
    fn = lambda z: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    samples = samples_at(zs, fn)
    sur = fit(samples, "loewner")
    L = loewner_matrix(samples)
    best = np.linalg.norm(L @ sur.coeffs)
    for _ in range(20):
        u = rng.standard_normal(sur.n_support) + 1j * rng.standard_normal(sur.n_support)
        u /= np.linalg.norm(u)
        assert best <= np.linalg.norm(L @ u) + 1e-12


def test_loewner_interpolates_support():
    samples = samples_at([1j, 2j, 3j, 4j, 5j], rational_11)
    sur = fit(samples, "loewner")
    support = [s for s in samples if s.z in sur.support]
    assert [s.z for s in support] == [1j, 3j, 5j]
    for s in support:
        assert np.array_equal(sur.eval(s.z), s.value)


def test_mri_single_sample():
    sur = fit(samples_at([1j], rational_11), "mri")
    assert sur.coeffs == pytest.approx(np.array([1.0 + 0j]))


def test_mri_identical_values_null_vector():
    M = np.array([[1.0 + 2j, 0.5], [0.0, 3.0]])
    sur = fit([FrequencySample(1j, M), FrequencySample(2j, M)], "mri")
    # exact null vector (1, -1)/sqrt(2) up to the phase rule
    assert np.abs(sur.coeffs) == pytest.approx(np.array([1.0, 1.0]) / np.sqrt(2), abs=1e-13)
    assert np.linalg.norm(sur.coeffs[0] * M + sur.coeffs[1] * M) <= 1e-13


@pytest.mark.parametrize("seed", range(3))
def test_mri_objective_matches_svd_oracle(seed):
    from greedyrat import make_synthetic

    sys = make_synthetic([1j, 4j, 9j], seed, m=3, p=3)  # p*m = 9 >= S
    zs = 1j * np.array([2.0, 3.0, 6.0, 8.0, 12.0])
    samples = samples_at(zs, sys.eval_transfer)
    sur = fit(samples, "mri")
    objective = np.linalg.norm(np.tensordot(sur.coeffs, np.array([s.value for s in samples]), 1))
    M = np.column_stack([s.value.ravel() for s in samples])
    smallest = np.linalg.svd(M, compute_uv=False)[-1]
    assert objective == pytest.approx(smallest, rel=1e-12, abs=1e-12)


def test_mri_warns_when_value_block_is_small():
    with pytest.warns(UserWarning, match="spurious"):
        fit(samples_at([1j, 2j, 3j], rational_11), "mri")


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
    a = fit(samples_at(zs, rational_11), "loewner")
    b = fit(samples_at(zs, rational_11), "loewner")
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
    sur = fit(samples_at(zs, target), "loewner")
    for f in np.geomspace(0.5, 200.0, 200):
        z = 1j * f
        exact = target(z)
        assert np.linalg.norm(sur.eval(z) - exact) <= 1e-8 * np.linalg.norm(exact)


# Tall shapes on both sides of zgesdd's QR crossover rows >= 17 * cols // 9
# (7 x 4 and 109 x 58 are the first it reduces, 6 x 4 and 108 x 58 the last
# it does not), the chain benchmark's last Loewner shape 228 x 58, 400 x 150
# past LAPACK's blocking crossover at 128 columns and 250 x 150 below its QR
# crossover, then square and wide matrices.
SVD_SHAPES = [(6, 4), (7, 4), (108, 58), (109, 58), (228, 58), (400, 150), (250, 150),
              (30, 30), (57, 58), (4, 9)]


@pytest.mark.parametrize("rows,cols", SVD_SHAPES, ids=[f"{r}x{c}" for r, c in SVD_SHAPES])
def test_smallest_right_singular_vector_is_the_svds_bit_for_bit(rows, cols):
    rng = np.random.default_rng(rows * 1000 + cols)
    M = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    ref = np.linalg.svd(M, full_matrices=rows < cols)[2][-1].conj()
    assert np.array_equal(_smallest_right_singular_vector(M, cols), ref)


@pytest.mark.parametrize("cols,hot", [(1, 0), (5, 4)])
def test_smallest_right_singular_vector_of_an_empty_matrix(cols, hot):
    q = _smallest_right_singular_vector(np.zeros((0, cols), dtype=np.complex128), cols)
    assert np.array_equal(q, np.eye(cols)[hot])
