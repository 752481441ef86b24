"""Sparse descriptor systems: the pencil paths and the paper's identities.

After a reverse Cuthill-McKee ordering the RLC line (singular E) from
conftest is tridiagonal and the mass-spring chain is banded, whether E and
A are stored sparse or dense; long-range couplings push one onto SuperLU,
or onto the dense path when stored dense.
"""
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import densified, long_range, random_pairs, rlc_line, spring_chain
from greedyrat import (
    DescriptorSystem,
    ResonanceError,
    check_prop1,
    check_prop2,
    fit_loewner,
    partition_samples,
    state_surrogate,
)
from greedyrat.system_model import BAND_MAX
from greedyrat.verify import draw_probe_points

# (system, f_min, f_max) with frequencies z = i*f spanning the response
LINE = (rlc_line, 1e8, 1e10)
CHAIN = (spring_chain, 1e-2, 1.0)


# case id: (system, frequency range, the path its structure selects); a
# "-dense" id stores E and A as dense arrays
PATH_CASES = {
    "line-tridiagonal": (rlc_line, LINE, "tridiagonal"),
    "chain-banded": (spring_chain, CHAIN, "banded"),
    "line-dense": (lambda: densified(rlc_line()), LINE, "tridiagonal"),
    "chain-dense": (lambda: densified(spring_chain()), CHAIN, "banded"),
    "line-sparse": (lambda: long_range(rlc_line()), LINE, "sparse"),
    "chain-sparse": (lambda: long_range(spring_chain()), CHAIN, "sparse"),
    "line-wide-dense": (lambda: densified(long_range(rlc_line())), LINE, "dense"),
    "chain-wide-dense": (lambda: densified(long_range(spring_chain())), CHAIN, "dense"),
}


@pytest.mark.parametrize("case", list(PATH_CASES))
def test_each_path_matches_dense_solve(case):
    make, (_, f_min, f_max), path = PATH_CASES[case]
    sys = make()
    assert sys.pencil_path == path
    rng = np.random.default_rng(1)
    E, A = (M.toarray() if sp.issparse(M) else M for M in (sys.E, sys.A))
    rhs = np.hstack([sys.B, rng.standard_normal((sys.n, 3)) + 1j * rng.standard_normal((sys.n, 3))])
    for f in np.exp(rng.uniform(np.log(f_min), np.log(f_max), 5)):
        z = 1j * f
        ref = np.linalg.solve(z * E - A, rhs)
        got = sys.solve_pencil(z, rhs)
        assert got.shape == ref.shape
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)
        vec = sys.solve_pencil(z, rhs[:, 0])
        assert vec.shape == (sys.n,)
        assert np.linalg.norm(vec - ref[:, 0]) <= 1e-10 * np.linalg.norm(ref[:, 0])


def test_wide_band_goes_to_superlu():
    sys = long_range(spring_chain())
    assert sys.pencil_path == "sparse"
    rng = np.random.default_rng(0)
    n = 300
    A = sp.random(n, n, density=0.02, random_state=rng) + sp.identity(n)
    assert DescriptorSystem(None, A, np.ones((n, 1)), np.ones((1, n))).pencil_path == "sparse"


def test_banded_path_bandwidth_is_the_structures():
    # RCM recovers the band whatever order the states come in
    sys = spring_chain()
    perm = np.random.default_rng(2).permutation(sys.n)
    E, A = sys.E[perm][:, perm], sys.A[perm][:, perm]
    shuffled = DescriptorSystem(E, A, sys.B[perm], sys.C[:, perm])
    assert shuffled.pencil_path == "banded"
    assert max(shuffled._pencil.kl, shuffled._pencil.ku) <= 2 <= BAND_MAX
    ref = sys.eval_transfer(0.37j)
    assert np.linalg.norm(shuffled.eval_transfer(0.37j) - ref) <= 1e-12 * np.linalg.norm(ref)


def triangular_system(n, wide, kind):
    """E = I and upper-triangular A with diagonal 1j*(1..n): exact poles at 1j*k.

    A is bidiagonal, plus a second superdiagonal for the banded kind (the
    bidiagonal alone is tridiagonal), and entries at random pairs above the
    diagonal if wide.
    """
    rng = np.random.default_rng(3)
    A = sp.diags(1j * np.arange(1.0, n + 1), format="csc")
    i = np.arange(n - 1)
    A = A + sp.csc_matrix((rng.uniform(0.5, 2.0, n - 1), (i, i + 1)), shape=(n, n))
    if kind == "banded":
        i = np.arange(n - 2)
        A = A + sp.csc_matrix((rng.uniform(0.5, 2.0, n - 2), (i, i + 2)), shape=(n, n))
    if wide:
        i, j = random_pairs(n, n // 2, rng)
        A = A + sp.csc_matrix((rng.uniform(0.5, 2.0, i.size), (i, j)), shape=(n, n))
    B, C = np.ones((n, 1)), np.ones((1, n))
    if kind == "dense":
        return DescriptorSystem(np.eye(n), A.toarray(), B, C)
    return DescriptorSystem(sp.identity(n, format="csc"), A, B, C)


@pytest.mark.parametrize(
    "kind,wide", [("tridiagonal", False), ("banded", False), ("sparse", True), ("dense", True)]
)
def test_exact_pole_raises_resonance_on_every_path(kind, wide):
    sys = triangular_system(200, wide, kind)
    assert sys.pencil_path == kind
    for k in (1, 17, 200):
        with pytest.raises(ResonanceError) as err:
            sys.eval_transfer(1j * k)
        assert err.value.z == 1j * k
    assert np.all(np.isfinite(sys.eval_transfer(17.5j)))


@pytest.mark.parametrize("n,path", [(3, "tridiagonal"), (2, "banded")])
def test_smallest_tridiagonal_pencils(n, path):
    # scipy's gttrf wrapper needs n >= 3; smaller pencils stay banded
    rng = np.random.default_rng(4)
    E = sp.diags(rng.uniform(0.5, 2.0, n), format="csc")
    A = sp.diags(
        [rng.uniform(0.5, 2.0, n - 1), -rng.uniform(1.0, 2.0, n), rng.uniform(0.5, 2.0, n - 1)],
        [-1, 0, 1],
        format="csc",
    )
    sys = DescriptorSystem(E, A, np.ones((n, 2)), np.ones((1, n)))
    assert sys.pencil_path == path
    rhs = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    z = 0.7j
    ref = np.linalg.solve(z * E.toarray() - A.toarray(), rhs)
    assert np.allclose(sys.solve_pencil(z, rhs), ref, rtol=1e-12, atol=0)
    vec = sys.solve_pencil(z, rhs[:, 1])
    assert vec.shape == (n,)
    assert np.allclose(vec, ref[:, 1], rtol=1e-12, atol=0)


def test_missing_e_with_dense_a_is_the_identity():
    sys = densified(spring_chain())
    implicit = DescriptorSystem(None, sys.A, sys.B, sys.C)
    explicit = DescriptorSystem(np.eye(sys.n), sys.A, sys.B, sys.C)
    assert implicit.pencil_path == explicit.pencil_path == "banded"
    for z in (0.05j, 0.3j, 2.0j):
        assert np.array_equal(implicit.eval_transfer(z), explicit.eval_transfer(z))


def test_mixed_sparse_and_dense_inputs_agree():
    sys = spring_chain()
    dense = densified(sys)
    for E, A in ((sys.E, dense.A), (dense.E, sys.A)):
        mixed = DescriptorSystem(E, A, sys.B, sys.C)
        assert mixed.pencil_path == dense.pencil_path == "banded"
        assert np.array_equal(mixed.eval_transfer(0.3j), dense.eval_transfer(0.3j))


@pytest.mark.parametrize("E", [None, "identity"])
def test_sparse_e_beside_dense_a_stays_sparse(E):
    # n = 2000: a dense E would hold 64 MB, the size of the dense A itself
    n = 2000
    i = np.arange(n)
    A = np.zeros((n, n), dtype=np.complex128)
    A[i, i], A[i[1:], i[:-1]], A[i[:-1], i[1:]] = -2.0, 1.0, 1.0
    B, C = np.ones((n, 1)), np.ones((1, n))
    E = sp.identity(n, format="csc") if E == "identity" else E
    tracemalloc.start()
    try:
        sys = DescriptorSystem(E, A, B, C)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sys.pencil_path == "tridiagonal"
    assert sp.issparse(sys.E) and sys.A is A
    assert held < A.nbytes / 8


@pytest.mark.parametrize("make,f_min,f_max", [LINE, CHAIN], ids=["line", "chain"])
def test_identities_hold_on_descriptor_systems(make, f_min, f_max):
    sys = make()
    zs = 1j * np.geomspace(f_min, f_max, 10)
    sur = fit_loewner(partition_samples([sys.sample(z) for z in zs]))
    pts = draw_probe_points(sur, f_min, f_max, 30, seed=1)
    gsur = state_surrogate(sur, sys)
    p1 = check_prop1(sys, sur, pts, gsur=gsur)
    assert p1.max_relative_spread <= 1e-10
    assert p1.gamma_estimate == pytest.approx(p1.gamma_formula, rel=1e-10)
    assert p1.max_identity_residual <= 1e-10
    p2 = check_prop2(sys, sur, pts, 1e-8, gsur=gsur)
    assert max(p2.identity_residuals) <= 1e-9


def test_line_e_is_singular():
    sys = rlc_line()
    E = sys.E.tocsr()
    E.eliminate_zeros()
    assert np.count_nonzero(np.diff(E.indptr) == 0) == (200 + 2) // 3
