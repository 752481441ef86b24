import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from greedyrat import (
    DescriptorSystem,
    FrequencySample,
    ResonanceError,
    load_matrix_market,
    make_synthetic,
)
from greedyrat.system_model import _check_info


def scalar_system():
    return DescriptorSystem(np.array([[1.0]]), np.array([[-1.0]]), [[1.0]], [[1.0]])


def test_scalar_transfer_closed_form():
    sys = scalar_system()
    assert sys.eval_transfer(0.0) == pytest.approx(np.array([[1.0]]))
    assert sys.eval_transfer(1.0) == pytest.approx(np.array([[0.5]]))


def test_scalar_state_transfer():
    sys = scalar_system()
    assert sys.eval_state_transfer(0.0) == pytest.approx(np.array([[1.0]]))


def test_diagonal_state_transfer():
    sys = DescriptorSystem(np.eye(2), np.diag([-1.0, -2.0]), [[1.0], [1.0]], np.eye(2))
    G = sys.eval_state_transfer(0.0)
    assert G == pytest.approx(np.array([[1.0], [0.5]]))


@pytest.mark.parametrize("seed", range(4))
def test_state_output_consistency(seed):
    rng = np.random.default_rng(seed)
    n, m, p = 6, 2, 3
    sys = DescriptorSystem(
        np.eye(n) + 0.1 * rng.standard_normal((n, n)),
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
        rng.standard_normal((n, m)),
        rng.standard_normal((p, n)),
    )
    for z in rng.standard_normal(5) + 1j * rng.standard_normal(5):
        H = sys.eval_transfer(z)
        G = sys.eval_state_transfer(z)
        assert np.linalg.norm(sys.C @ G - H) <= 1e-12 * max(np.linalg.norm(H), 1.0)


def test_eval_transfer_matches_dense_lu():
    # consistency of the two evaluation paths (sparse pencil vs dense solve)
    sys_dense = make_synthetic([1j, 2j, 5j, -1 + 3j], 7, m=2, p=2)
    sys_sparse = DescriptorSystem(
        sp.csc_matrix(sys_dense.E), sp.csc_matrix(sys_dense.A), sys_dense.B, sys_dense.C
    )
    for z in (0.3 + 0.7j, 4.0j, 10.0):
        ref = sys_dense.C @ scipy.linalg.solve(z * sys_dense.E - sys_dense.A, sys_dense.B)
        got = sys_sparse.eval_transfer(z)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_eval_transfer_deterministic():
    sys = make_synthetic([1j, 3j, 9j], 0, m=2, p=2)
    a = sys.eval_transfer(2.5j)
    b = sys.eval_transfer(2.5j)
    assert np.array_equal(a, b)


def test_resonance_error_carries_frequency():
    sys = DescriptorSystem(np.eye(2), np.diag([1j, 2j]), [[1.0], [1.0]], [[1.0, 1.0]])
    with pytest.raises(ResonanceError) as err:
        sys.eval_transfer(1j)
    assert err.value.z == 1j


def test_an_illegal_lapack_argument_is_a_value_error():
    # LAPACK's info < 0 names a bad argument, a bug rather than a resonance
    with pytest.raises(ValueError, match=r"^illegal value in argument 3 of LAPACK gttrf$"):
        _check_info(-3, "gttrf", 2j)
    _check_info(0, "gttrs")


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="B has"):
        DescriptorSystem(np.eye(3), np.eye(3), np.ones((2, 1)), np.ones((1, 3)))
    with pytest.raises(ValueError, match="C has"):
        DescriptorSystem(np.eye(3), np.eye(3), np.ones((3, 1)), np.ones((1, 2)))
    with pytest.raises(ValueError, match="E is"):
        DescriptorSystem(np.eye(2), np.eye(3), np.ones((3, 1)), np.ones((1, 3)))
    with pytest.raises(ValueError, match=r"A is \(3, 2\), not square"):
        DescriptorSystem(None, np.ones((3, 2)), np.ones((3, 1)), np.ones((1, 3)))


def test_frequency_sample_rejects_nonfinite():
    with pytest.raises(ValueError):
        FrequencySample(1j, np.array([[np.inf]]))


def test_matrix_market_round_trip(tmp_path):
    sys = make_synthetic([1j, 2j, 4j], 11, m=2, p=3)
    prefix = str(tmp_path / "sys")
    sys.save_matrix_market(prefix)
    back = load_matrix_market(prefix)
    for name in ("E", "A", "B", "C"):
        a = getattr(sys, name)
        b = getattr(back, name)
        a = a.toarray() if sp.issparse(a) else np.asarray(a)
        b = b.toarray() if sp.issparse(b) else np.asarray(b)
        assert np.array_equal(a, b)


def test_loader_missing_e_means_identity(tmp_path):
    import os

    sys = make_synthetic([1j, 2j], 1)
    prefix = str(tmp_path / "sys")
    sys.save_matrix_market(prefix)
    os.remove(f"{prefix}.E.mtx")
    back = load_matrix_market(prefix)
    E = back.E.toarray() if sp.issparse(back.E) else back.E
    assert np.array_equal(E, np.eye(2))


def test_loader_dimension_mismatch(tmp_path):
    from scipy.io import mmwrite

    sys = make_synthetic([1j, 2j, 3j], 1)
    prefix = str(tmp_path / "sys")
    sys.save_matrix_market(prefix)
    mmwrite(f"{prefix}.B.mtx", np.ones((2, 1)))  # wrong row count
    with pytest.raises(ValueError):
        load_matrix_market(prefix)


def test_make_synthetic_poles_are_response_peaks():
    poles = [2j, 8j, 30j, 70j]
    sys = make_synthetic(poles, 5, m=2, p=2)
    fs = np.geomspace(1.0, 100.0, 1000)
    mags = np.array([np.linalg.norm(sys.eval_transfer(1j * f)) for f in fs])
    for pole in poles:
        k = int(np.argmin(np.abs(fs - pole.imag)))
        lo = max(k - 50, 0)
        peak = lo + int(np.argmax(mags[lo : k + 51]))
        assert abs(peak - k) <= 1


def test_make_synthetic_deterministic():
    a = make_synthetic([1j, 5j], 42, m=2, p=2)
    b = make_synthetic([1j, 5j], 42, m=2, p=2)
    assert np.array_equal(a.B, b.B)
    assert np.array_equal(a.C, b.C)
    assert np.array_equal(np.asarray(a.A), np.asarray(b.A))


def test_make_synthetic_rejects_duplicates():
    with pytest.raises(ValueError, match="distinct"):
        make_synthetic([1j, 1j], 0)
    with pytest.raises(ValueError, match="pole"):
        make_synthetic([], 0)


def test_make_synthetic_single_pole_value():
    sys = make_synthetic([-1.0 + 0j], 3)
    expect = (sys.C @ sys.B)[0, 0]  # H(0) = c*b / (0 + 1)
    assert sys.eval_transfer(0.0)[0, 0] == pytest.approx(expect)
