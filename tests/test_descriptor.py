"""Sparse descriptor systems: the pencil paths and the paper's identities.

After a reverse Cuthill-McKee ordering the RLC line (singular E) from
greedyrat.testsystems is tridiagonal and the mass-spring chain is
banded, whether E and A are stored sparse or dense; long-range couplings
push one onto SuperLU, or onto the dense path when stored dense.
"""
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from greedyrat import (
    DescriptorSystem,
    FrequencySample,
    ResonanceError,
    check_prop1,
    check_prop2,
    fit,
    load_matrix_market,
    make_synthetic,
    state_surrogate,
    system_model,
)
from greedyrat.system_model import BAND_MAX, _band, _norm1
from greedyrat.testsystems import (
    CHAIN,
    LINE,
    PATH_CASES,
    densified,
    long_range,
    rlc_line,
    spring_chain,
    triangular_system,
)
from greedyrat.verify import draw_probe_points


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


@pytest.mark.parametrize("case", list(PATH_CASES))
def test_eval_transfer_is_the_full_solve_bit_for_bit(case):
    make, (_, f_min, f_max), path = PATH_CASES[case]
    sys = make()
    for f in np.geomspace(f_min, f_max, 6):
        z = 1j * f
        assert np.array_equal(sys.eval_transfer(z), sys.C @ sys.solve_pencil(z, sys.B))


@pytest.mark.parametrize(
    "case,rows",
    [
        # the ports sit at RCM positions 359 and 399 of 400; the window
        # starts kl = 1 row above the first
        ("line-tridiagonal", 42),
        ("line-dense", 42),
        # ports at both ends of the chain: the full n
        ("chain-banded", 200),
        # kl = 2 rows above the last position
        ("chain-banded-window", 3),
        # SuperLU's and getrf's row swaps may bring any row up: all n rows
        ("line-sparse", 400),
        ("chain-sparse", 200),
        ("line-wide-dense", 400),
        ("chain-wide-dense", 200),
    ],
)
def test_transfer_window_lengths(case, rows):
    sys = PATH_CASES[case][0]()
    assert sys.n - sys._pencil.w == rows


@pytest.mark.parametrize("complex_twin", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("case", ["line-sparse", "chain-sparse", "line-wide-dense", "chain-wide-dense"])
def test_dense_and_sparse_paths_keep_the_systems_order(case, complex_twin):
    # they factor in the system's order: no permutation, a window of all n
    # rows from row 0, and the system's own B, not a copy, as its B
    sys = PATH_CASES[case][0]()
    if complex_twin:
        sys = DescriptorSystem(*(M.astype(np.complex128) for M in (sys.E, sys.A, sys.B, sys.C)))
    pencil = sys._pencil
    assert pencil.perm is None and pencil.inv is None
    assert pencil.w == 0
    assert pencil.b_w is sys.B and pencil.c_w is sys.C


@pytest.mark.parametrize("case", list(PATH_CASES))
def test_a_solve_looks_up_no_lapack_routine(monkeypatch, case):
    # every path finds its LAPACK routines once, when the system is built
    make, (_, f_min, f_max), _ = PATH_CASES[case]
    sys = make()
    zs = 1j * np.geomspace(f_min, f_max, 3)
    before = [(sys.eval_transfer(z), sys.solve_pencil(z, sys.B)) for z in zs]

    def refuse(*args, **kwargs):
        raise AssertionError("a solve looked up a LAPACK routine")

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", refuse)
    monkeypatch.setattr(scipy.linalg, "lu_solve", refuse)
    for z, (H, X) in zip(zs, before):
        assert sys.eval_transfer(z).tobytes() == H.tobytes()
        assert sys.solve_pencil(z, sys.B).tobytes() == X.tobytes()


def test_wide_band_goes_to_superlu():
    sys = long_range(spring_chain())
    assert sys.pencil_path == "sparse"
    rng = np.random.default_rng(0)
    n = 300
    A = sp.random(n, n, density=0.02, random_state=rng) + sp.identity(n)
    assert DescriptorSystem(None, A, np.ones((n, 1)), np.ones((1, n))).pencil_path == "sparse"


@pytest.mark.parametrize("full", ["E", "A"])
def test_a_dense_operand_too_full_for_any_band_skips_the_ordering(monkeypatch, full):
    # n = 80 > 2 * BAND_MAX + 1, so a full 80-by-80 operand has more
    # nonzeros than any band of half-width BAND_MAX holds
    def no_ordering(*args, **kwargs):
        raise AssertionError("reverse_cuthill_mckee called")

    monkeypatch.setattr(system_model, "reverse_cuthill_mckee", no_ordering)
    n = 80
    rng = np.random.default_rng(4)
    dense = rng.standard_normal((n, n)) + n * np.eye(n)
    E, A = (dense, np.eye(n)) if full == "E" else (np.eye(n), dense)
    assert np.count_nonzero(dense) > n * (2 * BAND_MAX + 1)
    sys = DescriptorSystem(E, A, np.ones((n, 1)), np.ones((1, n)))
    assert sys.pencil_path == "dense"
    ref = np.ones((1, n)) @ np.linalg.solve(0.5j * E - A, np.ones((n, 1)))
    assert np.linalg.norm(sys.eval_transfer(0.5j) - ref) <= 1e-12 * np.linalg.norm(ref)


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


def test_sparse_exact_pole_keeps_stdout_clean(capfd):
    # at an exactly singular pencil OpenBLAS, called by SuperLU, prints
    # "illegal value" lines to file descriptor 1 before splu raises
    sys = triangular_system(200, True, "sparse")
    for k in (4, 5):
        with pytest.raises(ResonanceError) as raised:
            sys.eval_transfer(1j * k)
        assert raised.value.z == 1j * k
    out, err = capfd.readouterr()
    assert out == ""
    assert all("illegal value" in line for line in err.splitlines())


KINDS = ["tridiagonal", "banded", "sparse", "dense"]


@pytest.mark.parametrize("kind", KINDS)
def test_every_exact_pole_raises_resonance(kind):
    sys = triangular_system(200, kind in ("sparse", "dense"), kind)
    assert sys.pencil_path == kind
    missed = []
    for k in range(1, 201):
        try:
            sys.eval_transfer(1j * k)
        except ResonanceError as err:
            assert err.z == 1j * k
        else:
            missed.append(k)
    assert missed == []


# banded state 73 (RCM position 126) and sparse state 33: at 75j to 77j
# and at 137j the pencil is singular, yet B's column stays in its range, so
# X is bounded and wrong (H off by up to 0.83 and by 1.3e-8 relative)
# unless the solve's random column refuses the pencil
@pytest.mark.parametrize(
    "kind,position",
    [(kind, position) for kind in KINDS for position in ("first", "middle", "last")]
    + [("banded", 73), ("sparse", 33)],
)
def test_single_state_port_resonates_only_where_it_must(kind, position):
    # with B = C.T = e_s, H(z) = 1/(z - a_ss) for the triangular A: the
    # pencil's other exact poles are out of reach of the ports, so there
    # a reply either raises or is that reduced transfer function
    full = triangular_system(200, kind in ("sparse", "dense"), kind)
    # a position counts in the order the pencil factors: the band paths'
    # RCM order, the system's own on the dense and sparse paths; a number
    # is a state in the system's order
    order = np.arange(full.n) if full._pencil.perm is None else full._pencil.perm
    places = {"first": 0, "middle": order.size // 2, "last": -1}
    s = position if isinstance(position, int) else order[places[position]]
    port = np.zeros((full.n, 1))
    port[s] = 1.0
    sys = DescriptorSystem(full.E, full.A, port, port.T)
    assert sys.pencil_path == kind
    a_ss = 1j * (s + 1)
    with pytest.raises(ResonanceError) as err:
        sys.eval_transfer(a_ss)
    assert err.value.z == a_ss
    for k in range(1, 201):
        z = 1j * k
        if z == a_ss:
            continue
        try:
            h = sys.eval_transfer(z)
        except ResonanceError as err:
            assert err.z == z
        else:
            assert abs(h[0, 0] - 1 / (z - a_ss)) <= 1e-12 * abs(1 / (z - a_ss))


# trace_digest.py's 8-pole system beside the PATH_CASES
REGULAR_CASES = {
    **PATH_CASES,
    "8-pole": (
        lambda: make_synthetic(1j * np.array([2, 5, 11, 19, 37, 53, 71, 90.0]), 1, m=2, p=2),
        (None, 1.0, 100.0),
        "tridiagonal",
    ),
}


# the driver's grid size on the band paths, coarser on the slower ones
REGULAR_GRID = {"tridiagonal": 2000, "banded": 2000, "sparse": 60, "dense": 15}


# line-dense and chain-dense are left out: they solve with the bits of
# line-tridiagonal and chain-banded
@pytest.mark.parametrize("case", [c for c in REGULAR_CASES if c not in ("line-dense", "chain-dense")])
def test_no_regular_point_is_refused(case):
    # the pencil is regular at every grid point and geometric midpoint, so
    # no solve may raise there
    make, (_, f_min, f_max), path = REGULAR_CASES[case]
    sys = make()
    assert sys.pencil_path == path
    f = np.geomspace(f_min, f_max, REGULAR_GRID[path])
    for z in 1j * np.concatenate([f, np.sqrt(f[:-1] * f[1:])]):
        sys.eval_transfer(z)
        sys.eval_state_transfer(z)


@pytest.mark.parametrize("kind", KINDS)
def test_zero_ports_and_zero_right_hand_sides_give_zeros(kind):
    # the growth test compares 0 with 0 there, and passes
    full = triangular_system(200, kind in ("sparse", "dense"), kind)
    n, z = full.n, 17.5j
    zero_b = DescriptorSystem(full.E, full.A, np.zeros((n, 1)), full.C)
    zero_c = DescriptorSystem(full.E, full.A, full.B, np.zeros((1, n)))
    for sys in (zero_b, zero_c):
        assert sys.pencil_path == kind
        assert np.array_equal(sys.eval_transfer(z), np.zeros((1, 1)))
    assert np.array_equal(zero_b.eval_state_transfer(z), np.zeros((n, 1)))
    assert np.array_equal(full.solve_pencil(z, np.zeros((n, 2))), np.zeros((n, 2)))


@pytest.mark.parametrize("kind", ["tridiagonal", "banded"])
def test_resonance_above_the_window_raises(kind):
    # B and C touch only the state RCM puts last, so the window is the last
    # three rows and the pencil is singular at poles whose pivots lie above
    full = triangular_system(200, False, kind)
    n, last = full.n, full._pencil.perm[-1]
    port = np.zeros((n, 1))
    port[last] = 1.0
    sys = DescriptorSystem(full.E, full.A, port, port.T)
    assert sys.pencil_path == kind
    pencil = sys._pencil
    assert n - pencil.w == 3
    for k in (17, 200):
        assert pencil.inv[k - 1] < pencil.w
        with pytest.raises(ResonanceError) as err:
            sys.eval_transfer(1j * k)
        assert err.value.z == 1j * k
    for z in (17.5j, 99.5j):
        h = sys.eval_transfer(z)
        assert np.all(np.isfinite(h))
        assert np.array_equal(h, sys.C @ sys.solve_pencil(z, sys.B))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["float64", "complex128"])
def test_system_keeps_private_copies(dtype):
    # a system keeps float64 operands when all are real and complex128
    # otherwise, so arrays of either dtype are what np.asarray would alias
    rng = np.random.default_rng(5)
    n = 3
    E = np.diag(rng.uniform(0.5, 2.0, n)).astype(dtype)
    A = np.diag(-rng.uniform(1.0, 2.0, n)) + np.diag(rng.uniform(0.5, 2.0, n - 1), 1)
    A = A.astype(dtype)
    B = np.ones((n, 2), dtype=dtype)
    C = np.ones((1, n), dtype=dtype)
    sys = DescriptorSystem(E, A, B, C)
    before = [M.copy() for M in (sys.E, sys.A, sys.B, sys.C)]
    h = sys.eval_transfer(0.7j)
    for M in (E, A, B, C):
        M[:] = 0
    for kept, M in zip(before, (sys.E, sys.A, sys.B, sys.C)):
        assert M.dtype == dtype
        assert np.array_equal(kept, M)
        assert not M.flags.writeable
    assert np.array_equal(sys.eval_transfer(0.7j), h)
    with pytest.raises(ValueError):
        sys.B[0, 0] = 1.0
    # sparse E and A too: the band paths analysed them once and the sparse
    # path reads them at each solve, so an in-place write would split the two
    for case in ("line-tridiagonal", "line-sparse"):
        make, (_, f_min, _), path = PATH_CASES[case]
        sys = make()
        assert sys.pencil_path == path
        h = sys.eval_transfer(1j * f_min)
        for M in (sys.E, sys.A):
            assert sp.issparse(M)
            assert not any(a.flags.writeable for a in (M.data, M.indices, M.indptr))
            with pytest.raises(ValueError):
                M.data[:] *= 2
        assert np.array_equal(sys.eval_transfer(1j * f_min), h)


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


def build_held(E, A, B, C):
    """The system of E, A, B, C, the bytes its build leaves held and the
    most bytes it held at once (tracemalloc).
    """
    tracemalloc.start()
    try:
        return DescriptorSystem(E, A, B, C), *tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("E", [None, "identity"])
def test_sparse_e_beside_dense_a_stays_sparse(E):
    # n = 2000: a dense E would hold 64 MB, the size of the dense A itself
    n = 2000
    i = np.arange(n)
    A = np.zeros((n, n), dtype=np.complex128)
    A[i, i], A[i[1:], i[:-1]], A[i[:-1], i[1:]] = -2.0, 1.0, 1.0
    B, C = np.ones((n, 1)), np.ones((1, n))
    E = sp.identity(n, format="csc") if E == "identity" else E
    sys, held, _ = build_held(E, A, B, C)
    assert sys.pencil_path == "tridiagonal"
    # the system holds its private copy of A and nothing of E's dense size
    assert sp.issparse(sys.E) and sys.A is not A and np.array_equal(sys.A, A)
    assert held < A.nbytes * 9 / 8


def bands(sys):
    """The band rows the pencil keeps of E and A (none off the band paths)."""
    band = getattr(sys._pencil, "band", None)
    if band is None:
        return []
    return [M for _, *rows in band.z_rows + band.fixed_rows for M in rows]


@pytest.mark.parametrize("case", list(PATH_CASES))
def test_real_system_has_the_bits_of_its_complex_twin(case):
    make, (_, f_min, f_max), path = PATH_CASES[case]
    sys = make()
    twin = DescriptorSystem(*(M.astype(np.complex128) for M in (sys.E, sys.A, sys.B, sys.C)))
    assert sys.pencil_path == twin.pencil_path == path
    assert all(M.dtype == np.float64 for M in [sys.E, sys.A, sys.B, sys.C] + bands(sys))
    assert all(M.dtype == np.complex128 for M in [twin.E, twin.A, twin.B, twin.C] + bands(twin))
    # the window of B is kept in the system's dtype; the copy that
    # gttrs/gbtrs overwrite is complex on both
    if hasattr(sys._pencil, "b_w"):
        assert sys._pencil.b_w.dtype == np.float64 and twin._pencil.b_w.dtype == np.complex128
    # the random column is real on both, so both solve for the same bits
    assert sys._pencil.R.dtype == twin._pencil.R.dtype == np.float64
    assert sys._pencil.R.tobytes() == twin._pencil.R.tobytes()
    rng = np.random.default_rng(6)
    rhs = rng.standard_normal((sys.n, 3)) + 1j * rng.standard_normal((sys.n, 3))

    def reply(solve, s):
        """The bytes of solve(s), which is complex128, or None where it raises."""
        try:
            got = solve(s)
        except ResonanceError:
            return None
        assert got.dtype == np.complex128
        return got.tobytes()

    def solves(z):
        return (
            lambda s: s.eval_transfer(z),
            lambda s: s.eval_state_transfer(z),
            lambda s: s.solve_pencil(z, rhs),
        )

    # on the grid both twins reply, with the same bits
    for z in 1j * np.geomspace(f_min, f_max, 6):
        for solve in solves(z):
            got = reply(solve, sys)
            assert got is not None and got == reply(solve, twin)
    # at 8 of the pencil's computed eigenvalues the random column refuses
    # the pencil at some: both twins raise at the same z, and return the
    # same bits at every other
    E, A = (M.toarray() if sp.issparse(M) else M for M in (sys.E, sys.A))
    eig = np.sort(scipy.linalg.eigvals(A, E))
    eig = eig[np.isfinite(eig)]
    raised = 0
    for z in eig[:: -(-eig.size // 8)]:
        for solve in solves(z):
            got = reply(solve, sys)
            assert got == reply(solve, twin)
            raised += got is None
    assert raised


@pytest.mark.parametrize("storage", ["sparse", "dense"])
def test_int_and_float32_operands_are_promoted_to_float64(storage):
    n = 6
    E = sp.identity(n, dtype=np.int64, format="csc")
    A = sp.diags([np.ones(n - 1), -2 * np.ones(n), np.ones(n - 1)], [-1, 0, 1], dtype=np.int32)
    if storage == "dense":
        E, A = E.toarray().astype(np.float32), A.toarray()
    B, C = np.ones((n, 1), dtype=np.int8), np.ones((1, n), dtype=np.float32)
    sys = DescriptorSystem(E, A, B, C)
    ref = DescriptorSystem(*(M.astype(np.float64) for M in (E, A, B, C)))
    assert sys.pencil_path == ref.pencil_path == "tridiagonal"
    assert all(M.dtype == np.float64 for M in [sys.E, sys.A, sys.B, sys.C] + bands(sys))
    assert sys.eval_transfer(0.7j).tobytes() == ref.eval_transfer(0.7j).tobytes()


def test_a_complex_operand_keeps_the_system_complex():
    # make_synthetic's A holds complex poles beside a real identity E
    sys = make_synthetic([1j, -2.0 + 3j, 5j], 1, m=2, p=2)
    assert all(M.dtype == np.complex128 for M in (sys.E, sys.A, sys.B, sys.C))
    line = rlc_line()
    mixed = DescriptorSystem(line.E, line.A, line.B.astype(np.complex128), line.C)
    assert all(M.dtype == np.complex128 for M in [mixed.E, mixed.A, mixed.C] + bands(mixed))
    assert mixed.eval_transfer(1e9j).tobytes() == line.eval_transfer(1e9j).tobytes()


def test_real_line_holds_at_most_0_6_of_its_complex_twin():
    line = rlc_line(sections=10_000)  # n = 20000, tridiagonal path
    real = (line.E, line.A, line.B, line.C)
    sys, held, _ = build_held(*real)
    twin, twin_held, _ = build_held(*(M.astype(np.complex128) for M in real))
    assert sys.pencil_path == twin.pencil_path == "tridiagonal"
    assert held <= 0.6 * twin_held


def test_real_chain_holds_at_most_0_6_of_its_complex_twin():
    chain = spring_chain(masses=10_000)  # n = 20000, banded path
    real = (chain.E, chain.A, chain.B, chain.C)
    sys, held, _ = build_held(*real)
    twin, twin_held, _ = build_held(*(M.astype(np.complex128) for M in real))
    assert sys.pencil_path == twin.pencil_path == "banded"
    assert held <= 0.6 * twin_held


def test_sparse_build_keeps_no_copy_of_b_or_order():
    # n = 20000 on the sparse path: an identity order and a copy of B held
    # 2.30 MiB with a 3.22 MiB peak (tracemalloc)
    base = long_range(rlc_line(sections=10_000))
    sys, held, peak = build_held(base.E, base.A, base.B, base.C)
    assert sys.pencil_path == "sparse"
    assert held <= 1.9 * 2**20
    assert peak <= 3.23 * 2**20


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize(
    "make, path, bound",
    [
        (lambda: rlc_line(sections=10_000), "tridiagonal", 1.5),
        (lambda: spring_chain(masses=10_000), "banded", 1.5),
        # n = 2000 with a dense E and A, whose 1-norms once copied each whole
        (lambda: densified(rlc_line(sections=1000)), "tridiagonal", 1.2),
    ],
    ids=["line", "chain", "line-dense"],
)
def test_build_peaks_at_most_1_5_times_what_it_keeps(make, path, bound, dtype):
    # n = 20000; the build used to peak at 1.73 to 2.05 times what it keeps,
    # and at 1.45 to 1.50 times on the dense line
    base = make()
    operands = [M.astype(dtype) for M in (base.E, base.A, base.B, base.C)]
    del base
    sys, held, peak = build_held(*operands)
    assert sys.pencil_path == path
    assert peak <= bound * held


def test_norm1_of_a_sparse_operand_has_the_bits_of_abs_m_summed():
    n = 9
    filled = [2, 3, 5, 6]  # columns 0 and 1, 4, and 7 and 8 are empty
    rng = np.random.default_rng(8)
    for imag in (0, 1j):
        M = np.zeros((n, n), dtype=np.complex128 if imag else np.float64)
        for j in filled:
            M[rng.choice(n, 6, replace=False), j] = rng.standard_normal(6) + imag * rng.standard_normal(6)
        # each non-empty column in turn the largest, the last one before
        # the trailing empty columns too
        for j in filled:
            S = M.copy()
            S[:, j] *= np.pi * 1e3
            S = sp.csc_matrix(S)
            assert _norm1(S) == float(abs(S).sum(axis=0).max())
    assert _norm1(sp.csc_matrix((n, n))) == 0.0


@pytest.mark.parametrize("imag", [0, 1j], ids=["real", "complex"])
def test_norm1_of_a_dense_operand_has_the_bits_of_abs_m_summed_whole(imag):
    # _norm1 sums |M| a block of columns at a time; each column's sum must
    # keep the bits of summing the whole |M|, made Fortran-contiguous
    rng = np.random.default_rng(9)

    def whole(M):
        return float(np.asfortranarray(abs(M)).sum(axis=0).max(initial=0.0))

    for shape in [(7, 7), (300, 300), (2001, 200), (70_000, 3)]:
        M = rng.standard_normal(shape) + imag * rng.standard_normal(shape)
        M *= np.exp(rng.uniform(-20, 20, shape))  # magnitudes that round apart
        F = np.asfortranarray(M)
        # C- and F-ordered, a trailing block of rows as a window solve's,
        # one column as a vector and as a matrix, and no column
        for X in (M, F, F[len(F) // 3 :], M[:, 0], F[:, -1:], M[:, :0]):
            assert np.float64(_norm1(X)).tobytes() == np.float64(whole(X)).tobytes()
    M[5, 1] = np.nan  # in the second of its three blocks
    assert np.isnan(_norm1(M))


BAND_CASES = [case for case, (_, _, path) in PATH_CASES.items() if path in ("tridiagonal", "banded")]


def handed_band(sys, z):
    """The band of zE - A that sys's band path hands LAPACK at z, as rows-by-n."""
    pencil = sys._pencil
    name = "gttrf" if sys.pencil_path == "tridiagonal" else "gbtrf"
    lapack, handed = getattr(pencil, name), []

    def record(*args, **kwargs):
        handed.extend(np.array(a) for a in args if isinstance(a, np.ndarray))
        return lapack(*args, **kwargs)

    setattr(pencil, name, record)
    try:
        sys.eval_transfer(z)
    finally:
        setattr(pencil, name, lapack)
    if name == "gbtrf":
        return handed[0]
    # gttrf gets dl, d, du: rows 2, 1 and 0 without their padding entry
    dl, d, du = handed
    return np.stack([np.concatenate([[0], du]), d, np.concatenate([dl, [0]])])


def band_layout(sys):
    """The rows and the diagonal's row of sys's band storage."""
    pencil = sys._pencil
    if sys.pencil_path == "tridiagonal":
        return 3, 1
    return 2 * pencil.kl + pencil.ku + 1, pencil.kl + pencil.ku


def full_bands(sys):
    """The whole rows-by-n bands of E and A, as sys's band path lays them out."""
    rows, diag_row = band_layout(sys)
    return [_band(sp.csc_matrix(M), sys._pencil.inv, diag_row, rows)[1] for M in (sys.E, sys.A)]


def reference_band(sys, z):
    """z*band_e - band_a from the bands of E and A, as the pencil lays them out."""
    band_e, band_a = full_bands(sys)
    return z * band_e - band_a


@pytest.mark.parametrize("case", BAND_CASES)
def test_band_handed_to_lapack_is_z_band_e_minus_band_a(case):
    make, (_, f_min, f_max), path = PATH_CASES[case]
    sys = make()
    twin = DescriptorSystem(*(M.astype(np.complex128) for M in (sys.E, sys.A, sys.B, sys.C)))
    grid = [1j * f for f in np.geomspace(f_min, f_max, 4)]
    # negative real or imaginary parts; complex(0.0, -f) keeps Re z = +0
    off = [complex(0.0, -f_max), complex(-f_min, f_min), complex(-f_max, -f_min)]
    for s in (sys, twin):
        assert s.pencil_path == path
        for z in grid + off:
            got, want = handed_band(s, z), reference_band(s, z)
            if s.pencil_path == "tridiagonal":
                # the padding entries never reach gttrf
                want[0, 0] = want[2, -1] = 0
            assert np.array_equal(got, want)
            if z.real > 0 or (z.real == 0 and not np.signbit(z.real)):
                assert got.tobytes() == np.ascontiguousarray(want).tobytes()
                # and H is that of the reference band, bit for bit
                h = s.eval_transfer(z)
                s._pencil.band.assemble = lambda z: reference_band(s, z)
                try:
                    assert s.eval_transfer(z).tobytes() == h.tobytes()
                finally:
                    del s._pencil.band.assemble


def test_a_negative_zero_in_e_keeps_its_row_a_z_row():
    # z*(-0) - 0 is -0 where the fixed row 0.0 - 0 would give +0
    # -0 stored in E at A's off-diagonal entries, so the pattern stays A's,
    # and one of those entries of A stored as an explicit 0
    line = rlc_line()
    E, A = line.E.tocoo(), line.A.tocoo()
    off = A.row != A.col
    rows, cols = np.r_[E.row, A.row[off]], np.r_[E.col, A.col[off]]
    E = sp.csc_matrix((np.r_[E.data, np.full(off.sum(), -0.0)], (rows, cols)), E.shape)
    A.data[np.flatnonzero(off)[0]] = 0.0
    sys = DescriptorSystem(E, A, line.B, line.C)
    assert [i for i, _, _ in sys._pencil.band.z_rows] == [0, 1, 2]
    assert sys.pencil_path == "tridiagonal"
    z = 1j * LINE[1]
    assert handed_band(sys, z).tobytes() == np.ascontiguousarray(reference_band(sys, z)).tobytes()


@pytest.mark.parametrize("case", BAND_CASES)
def test_z_rows_are_the_band_rows_e_stores_entries_in(case):
    sys = PATH_CASES[case][0]()
    twin = DescriptorSystem(*(M.astype(np.complex128) for M in (sys.E, sys.A, sys.B, sys.C)))
    for s in (sys, twin):
        band_e, _ = full_bands(s)
        # E's stored pattern, scattered as ones into the same layout
        E = sp.csc_matrix(s.E)
        ones = sp.csc_matrix((np.ones(E.nnz), E.indices, E.indptr), E.shape)
        rows, diag_row = band_layout(s)
        (stored,) = np.nonzero(_band(ones, s._pencil.inv, diag_row, rows)[1].any(axis=1))
        band = s._pencil.band
        assert [i for i, _, _ in band.z_rows] == stored.tolist()
        assert sorted([i for i, _, _ in band.z_rows] + [i for i, _ in band.fixed_rows]) == list(range(len(band_e)))
        for i, e, _ in band.z_rows:
            assert e.dtype == band_e.dtype and e.tobytes() == band_e[i].tobytes()


def test_an_explicit_plus_zero_in_e_makes_its_row_a_z_row():
    # +0 stored in E at A's off-diagonal entries: the pattern stays A's,
    # and band rows 0 and 2, where E holds no value but +0, become z rows
    line = rlc_line()
    E, A = line.E.tocoo(), line.A.tocoo()
    off = A.row != A.col
    rows, cols = np.r_[E.row, A.row[off]], np.r_[E.col, A.col[off]]
    E = sp.csc_matrix((np.r_[E.data, np.zeros(off.sum())], (rows, cols)), E.shape)
    sys = DescriptorSystem(E, line.A, line.B, line.C)
    assert sys.pencil_path == line.pencil_path == "tridiagonal"
    assert [i for i, _, _ in sys._pencil.band.z_rows] == [0, 1, 2]
    assert [i for i, _, _ in line._pencil.band.z_rows] == [1]
    # Re z = +0, as on every grid, also with a negative imaginary part
    for z in [1j * f for f in np.geomspace(LINE[1], LINE[2], 4)] + [complex(0.0, -LINE[2])]:
        assert handed_band(sys, z).tobytes() == np.ascontiguousarray(reference_band(sys, z)).tobytes()
        h = sys.eval_transfer(z)
        # the same bytes as from the reference band, and as with fixed rows
        assert h.tobytes() == line.eval_transfer(z).tobytes()
        sys._pencil.band.assemble = lambda z: reference_band(sys, z)
        try:
            assert sys.eval_transfer(z).tobytes() == h.tobytes()
        finally:
            del sys._pencil.band.assemble


@pytest.mark.parametrize("case", list(PATH_CASES))
def test_non_finite_z_raises_before_any_arithmetic(case):
    sys = PATH_CASES[case][0]()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (np.inf, 1j * np.inf, np.nan, 1j * np.nan):
            for solve in (sys.eval_transfer, sys.eval_state_transfer):
                with pytest.raises(ValueError, match="not finite"):
                    solve(z)


@pytest.mark.parametrize("complex_twin", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("case", list(PATH_CASES))
def test_pencil_solve_is_the_judged_reply(case, complex_twin):
    # the pencil's one solve gives H without a right-hand side and X with
    # one, the bytes solve_pencil returns, which only checks z first
    make, (_, f_min, f_max), _ = PATH_CASES[case]
    sys = make()
    if complex_twin:
        sys = DescriptorSystem(*(M.astype(np.complex128) for M in (sys.E, sys.A, sys.B, sys.C)))
    for z in 1j * np.geomspace(f_min, f_max, 4):
        assert sys._pencil.solve(z).tobytes() == sys.eval_transfer(z).tobytes()
        assert sys._pencil.solve(z, sys.B).tobytes() == sys.eval_state_transfer(z).tobytes()


@pytest.mark.parametrize("case", list(PATH_CASES))
def test_a_non_finite_right_hand_side_raises_before_any_factoring(monkeypatch, case):
    # its 1-norm, the growth test's bound, is not finite: a bad argument,
    # not a pencil singular at z
    make, (_, f_min, _), _ = PATH_CASES[case]
    sys = make()

    def refuse(z):
        raise AssertionError("the pencil was factored")

    monkeypatch.setattr(sys._pencil, "_factor", refuse)
    for bad in (np.nan, np.inf, -np.inf, complex(0, np.nan)):
        for shape in ((sys.n, 2), (sys.n,)):
            rhs = np.ones(shape, dtype=np.complex128)
            rhs[sys.n // 2] = bad
            with pytest.raises(ValueError, match="right-hand side is not finite"):
                sys.solve_pencil(1j * f_min, rhs)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("storage", ["sparse", "dense"])
@pytest.mark.parametrize("name", list("EABC"))
def test_a_non_finite_operand_is_refused_at_build(name, storage, bad):
    # a NaN stored in A would fail the growth test at every z and read as a
    # resonance everywhere, and an infinite entry of B would pass unseen
    base = rlc_line() if storage == "sparse" else densified(rlc_line())
    operands = dict(zip("EABC", (M.copy() for M in (base.E, base.A, base.B, base.C))))
    M = operands[name]
    # the middle nonzero: data and the flat view write into the copy
    data = M.data if sp.issparse(M) else M.reshape(-1)
    nonzero = np.flatnonzero(data)
    data[nonzero[nonzero.size // 2]] = bad
    with pytest.raises(ValueError, match=f"^{name} is not finite$"):
        DescriptorSystem(*operands.values())


def test_matrix_market_round_trip_keeps_a_real_system_real(tmp_path):
    sys = rlc_line()
    prefix = str(tmp_path / "line")
    sys.save_matrix_market(prefix)
    for name in "EABC":
        with open(f"{prefix}.{name}.mtx") as f:
            assert f.readline().split()[3] == "real"
    loaded = load_matrix_market(prefix)
    assert all(M.dtype == np.float64 for M in (loaded.E, loaded.A, loaded.B, loaded.C))
    for z in 1j * np.geomspace(*LINE[1:], 6):
        assert loaded.eval_transfer(z).tobytes() == sys.eval_transfer(z).tobytes()


@pytest.mark.parametrize("make,f_min,f_max", [LINE, CHAIN], ids=["line", "chain"])
def test_identities_hold_on_descriptor_systems(make, f_min, f_max):
    sys = make()
    zs = 1j * np.geomspace(f_min, f_max, 10)
    sur = fit([FrequencySample(z, sys.eval_transfer(z)) for z in zs], "loewner")
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
