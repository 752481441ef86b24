"""Descriptor systems and their transfer-function evaluation.

A system is the tuple (E, A, B, C) of the frequency-domain relations
z*E*X = A*X + B*U, Y = C*X. The output transfer function is
H(z) = C (zE - A)^{-1} B and the state transfer function is
G(z) = (zE - A)^{-1} B. Evaluations go through an LU factorization of
the pencil zE - A; the explicit inverse is never formed.

Everything about the pencil that does not depend on z is worked out once,
when the system is built, and each frequency then only factors and
solves. The path is fixed by the structure of E and A alone, read from CSC
copies of dense arrays; each operand is kept in the storage it was given:

  tridiagonal
           half-bandwidth at most 1 after a reverse Cuthill-McKee (RCM)
           ordering of the union pattern of E and A, and n >= 3: E and
           A are scattered once into three contiguous diagonals, and each
           frequency costs one axpy, gttrf and gttrs
  banded   half-bandwidth at most BAND_MAX after the RCM ordering: E and A
           are scattered once into LAPACK band storage, and each frequency
           costs one axpy, gbtrf and gbtrs
  dense    a wider band with E or A dense: LAPACK getrf/getrs on the n-by-n
           pencil, the only path that densifies a sparse operand
  sparse   a wider band with E and A sparse: SuperLU on the pencil zE - A

Every path raises ResonanceError when a pivot of U vanishes or falls below
RCOND_MIN times the largest one.
"""
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.io import mmread, mmwrite
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import ResonanceError

# Reciprocal-condition estimate below this means the pencil is treated as
# singular at the queried frequency.
RCOND_MIN = 1e-14

# Largest half-bandwidth, after the reverse Cuthill-McKee ordering, that a
# sparse pencil is factored in band storage; wider ones go to SuperLU.
# Probe (2-core x86, one BLAS thread, two right-hand sides): on 2-D grid
# pencils and on chains with one random link per node, n = 2000 and 20000,
# the banded path took 0.1 to 0.8 of SuperLU's time per solve up to
# half-bandwidth 33, and 1.0 to 1.4 times it on the n = 20000 chains from
# half-bandwidth 41 on (grids crossed over near 64).
BAND_MAX = 32


@dataclass(frozen=True)
class FrequencySample:
    """A frequency paired with the p-by-m transfer-function value there."""

    z: complex
    value: np.ndarray

    def __post_init__(self):
        value = np.atleast_2d(np.asarray(self.value, dtype=np.complex128))
        if not np.all(np.isfinite(value)):
            raise ValueError(f"sample at z = {self.z} contains non-finite entries")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "z", complex(self.z))


def _check_pivots(z, diag):
    """Raise ResonanceError when U's diagonal says the pencil is singular at z."""
    du = np.abs(diag)
    if du.min() <= RCOND_MIN * max(du.max(), 1e-300):
        raise ResonanceError(z)


class _DensePencil:
    """LAPACK getrf/getrs on the dense pencil."""

    kind = "dense"

    def __init__(self, E, A):
        self.E, self.A = (M.toarray() if sp.issparse(M) else M for M in (E, A))

    def solve(self, z, rhs):
        P = z * self.E - self.A
        # LAPACK getrf directly rather than lu_factor: lu_factor warns on an
        # exactly singular pencil, which the pivot check below reports as a
        # ResonanceError, and silencing that warning per call would reset
        # every once-per-location warning filter in the process.
        getrf, = scipy.linalg.get_lapack_funcs(("getrf",), (P,))
        lu, piv, info = getrf(P, overwrite_a=True)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK getrf")
        _check_pivots(z, np.diag(lu))
        return scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)


class _OrderedPencil:
    """A pencil factored in the RCM order perm, whose inverse is inv.

    Subclasses factor the permuted pencil (``_factor``) and solve with the
    factors (``_solve``, which returns LAPACK's Fortran-ordered solution);
    the right-hand side is gathered into that order and the solution back
    out of it by ``np.take``.
    """

    def __init__(self, perm, inv):
        self.perm, self.inv = perm, inv

    def solve(self, z, rhs):
        factors = self._factor(z)
        rhs = np.asarray(rhs, dtype=np.complex128)
        b = np.take(rhs, self.perm, axis=0).reshape(self.perm.size, -1)
        x = self._solve(factors, b)
        # x.T is C-contiguous, so this gathers whole rows and returns x's
        # Fortran order; np.take(x, inv, axis=0) reads strided (0.5 against
        # 0.22 ms on an n = 50000 line with two columns, 2-core x86)
        return np.take(x.T, self.inv, axis=1).T.reshape(rhs.shape)


class _TridiagonalPencil(_OrderedPencil):
    """LAPACK gttrf/gttrs on the RCM-permuted pencil with half-bandwidth <= 1.

    E and A are scattered once into C-ordered 3-by-n band arrays: the
    permuted entry (r, c) sits in column c of row 1 + r - c, so row 0 from
    column 1 on is the superdiagonal, row 1 the diagonal and row 2 up to
    column n - 2 the subdiagonal. Each frequency costs one axpy and hands
    contiguous row slices to a tridiagonal LU that makes no BLAS calls.
    """

    kind = "tridiagonal"

    def __init__(self, E, A, perm, inv):
        super().__init__(perm, inv)
        self.tri_e = _band(E, inv, rows=3, diag_row=1, order="C")
        self.tri_a = _band(A, inv, rows=3, diag_row=1, order="C")
        self.gttrf, self.gttrs = scipy.linalg.get_lapack_funcs(("gttrf", "gttrs"), (self.tri_e,))

    def _factor(self, z):
        t = np.multiply(z, self.tri_e)
        np.subtract(t, self.tri_a, out=t)
        du, d, dl = t[0, 1:], t[1], t[2, :-1]
        dl, d, du, du2, ipiv, info = self.gttrf(
            dl, d, du, overwrite_dl=1, overwrite_d=1, overwrite_du=1
        )
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK gttrf")
        _check_pivots(z, d)
        return dl, d, du, du2, ipiv

    def _solve(self, factors, b):
        x, info = self.gttrs(*factors, b, overwrite_b=True)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK gttrs")
        return x


class _BandedPencil(_OrderedPencil):
    """LAPACK gbtrf/gbtrs on the RCM-permuted pencil in band storage.

    E and A are scattered once into LAPACK's full 2*kl + ku + 1 band rows,
    whose top kl rows (gbtrf's room for the pivoting fill) stay zero, so
    each frequency costs one contiguous axpy into a fresh band array, one
    banded LU and one banded solve.
    """

    kind = "banded"

    def __init__(self, E, A, perm, inv, kl, ku):
        super().__init__(perm, inv)
        self.kl, self.ku = kl, ku
        rows = 2 * kl + ku + 1
        self.band_e = _band(E, inv, rows=rows, diag_row=kl + ku, order="F")
        self.band_a = _band(A, inv, rows=rows, diag_row=kl + ku, order="F")
        self.gbtrf, self.gbtrs = scipy.linalg.get_lapack_funcs(("gbtrf", "gbtrs"), (self.band_e,))

    def _factor(self, z):
        kl, ku = self.kl, self.ku
        ab = np.multiply(z, self.band_e, order="F")
        np.subtract(ab, self.band_a, out=ab)
        lu, piv, info = self.gbtrf(ab, kl, ku, overwrite_ab=True)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK gbtrf")
        _check_pivots(z, lu[kl + ku])
        return lu, piv

    def _solve(self, factors, b):
        lu, piv = factors
        x, info = self.gbtrs(lu, self.kl, self.ku, b, piv, overwrite_b=True)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK gbtrs")
        return x


class _SparsePencil:
    """SuperLU on the pencil zE - A."""

    kind = "sparse"

    def __init__(self, E, A):
        self.E, self.A = E, A

    def solve(self, z, rhs):
        try:
            lu = spla.splu((z * self.E - self.A).tocsc())
        except RuntimeError as exc:
            raise ResonanceError(z, f"sparse LU failed at z = {z}: {exc}") from exc
        _check_pivots(z, lu.U.diagonal())
        return lu.solve(np.asarray(rhs, dtype=np.complex128))


def _pattern(M):
    """Structure of a canonical CSC matrix, as a CSC matrix of ones."""
    return sp.csc_matrix((np.ones(M.nnz, dtype=np.int8), M.indices, M.indptr), shape=M.shape)


def _permuted_entries(M, inv):
    """(row, col) of each stored entry of a CSC matrix under the permutation inv."""
    return inv[M.indices], np.repeat(inv, np.diff(M.indptr))


def _band(M, inv, rows, diag_row, order):
    """M[perm][:, perm] in band storage; M is canonical CSC, inv inverts perm.

    Entry (r, c) of the permuted matrix goes to row diag_row + r - c of
    column c in a zero rows-by-n array.
    """
    r, c = _permuted_entries(M, inv)
    band = np.zeros((rows, inv.size), dtype=np.complex128, order=order)
    band[diag_row + r - c, c] = M.data
    return band


def _analyse_pencil(E, A):
    """The pencil factorizer for E and A, chosen by their structure alone.

    A pattern too wide for the band paths goes to SuperLU when E and A
    are both sparse and to getrf otherwise.
    """
    sparse = sp.issparse(E) and sp.issparse(A)
    if not sparse:
        # no ordering bands more entries than a band of half-width BAND_MAX
        # holds, so such pencils skip the CSC copies and the ordering
        band_nnz = A.shape[0] * (2 * BAND_MAX + 1)
        if any((M.nnz if sp.issparse(M) else np.count_nonzero(M)) > band_nnz for M in (A, E)):
            return _DensePencil(E, A)
    Ec, Ac = (M if sp.issparse(M) else sp.csc_matrix(M) for M in (E, A))
    union = _pattern(Ec) + _pattern(Ac)
    perm = reverse_cuthill_mckee((union + union.T).tocsr(), symmetric_mode=True)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    r, c = _permuted_entries(union, inv)
    offsets = r - c
    kl, ku = int(offsets.max(initial=0)), int(-offsets.min(initial=0))
    # scipy's gttrf wrapper rejects n < 3, so such pencils stay banded
    if max(kl, ku) <= 1 and perm.size >= 3:
        return _TridiagonalPencil(Ec, Ac, perm, inv)
    if max(kl, ku) <= BAND_MAX:
        return _BandedPencil(Ec, Ac, perm, inv, kl, ku)
    return _SparsePencil(E, A) if sparse else _DensePencil(E, A)


class DescriptorSystem:
    """Immutable (E, A, B, C) system; E and A may be scipy sparse matrices.

    E and A each keep the storage they were given, and a missing E is the
    sparse identity; only the ``dense`` path densifies a sparse operand.
    The pencil's structure, not its storage, is analysed once, here, so
    solve_pencil only factors and solves at each frequency (see
    ``pencil_path``).
    """

    def __init__(self, E, A, B, C):
        A = self._as_square(A, "A")
        n = A.shape[0]
        if E is None:
            E = sp.identity(n, format="csc")
        E = self._as_square(E, "E")
        B = np.atleast_2d(np.asarray(B, dtype=np.complex128))
        C = np.atleast_2d(np.asarray(C, dtype=np.complex128))
        if E.shape != (n, n):
            raise ValueError(f"E is {E.shape}, expected {(n, n)}")
        if B.shape[0] != n:
            raise ValueError(f"B has {B.shape[0]} rows, expected {n}")
        if C.shape[1] != n:
            raise ValueError(f"C has {C.shape[1]} columns, expected {n}")
        self.E, self.A, self.B, self.C = E, A, B, C
        self.n = n
        self.m = B.shape[1]
        self.p = C.shape[0]
        self._pencil = _analyse_pencil(E, A)

    @staticmethod
    def _as_square(M, name):
        if sp.issparse(M):
            M = M.tocsc().astype(np.complex128)
            M.sum_duplicates()
        else:
            M = np.atleast_2d(np.asarray(M, dtype=np.complex128))
        if M.shape[0] != M.shape[1]:
            raise ValueError(f"{name} is {M.shape}, not square")
        return M

    @property
    def pencil_path(self):
        """How solve_pencil factors: "tridiagonal", "banded", "sparse" or "dense".

        Fixed at construction by the structure of E and A alone.
        """
        return self._pencil.kind

    def solve_pencil(self, z, rhs):
        """Solve (zE - A) X = rhs with a cheap singularity guard."""
        return self._pencil.solve(z, rhs)

    def eval_transfer(self, z):
        """H(z) = C (zE - A)^{-1} B as a dense p-by-m array."""
        return self.C @ self.solve_pencil(complex(z), self.B)

    def eval_state_transfer(self, z):
        """G(z) = (zE - A)^{-1} B as a dense n-by-m array."""
        return self.solve_pencil(complex(z), self.B)

    def sample(self, z):
        return FrequencySample(z, self.eval_transfer(z))

    def save_matrix_market(self, prefix):
        """Write <prefix>.E.mtx / .A.mtx / .B.mtx / .C.mtx."""
        for name, M in (("E", self.E), ("A", self.A), ("B", self.B), ("C", self.C)):
            mmwrite(f"{prefix}.{name}.mtx", sp.coo_matrix(M) if sp.issparse(M) else M)


def _read_mtx(path):
    if not os.path.exists(path):
        raise FileNotFoundError(f"matrix file not found: {path}")
    try:
        return mmread(path)
    except ValueError as exc:
        raise ValueError(f"cannot parse Matrix Market file {path}: {exc}") from exc


def load_matrix_market(prefix):
    """Load a DescriptorSystem from ``<prefix>.E.mtx``, ``.A.mtx``, ``.B.mtx``
    and ``.C.mtx``. A missing E file means E = identity.
    """
    e_path = f"{prefix}.E.mtx"
    Em = _read_mtx(e_path) if os.path.exists(e_path) else None
    Am, Bm, Cm = (_read_mtx(f"{prefix}.{name}.mtx") for name in "ABC")
    Bm, Cm = (M.toarray() if sp.issparse(M) else M for M in (Bm, Cm))
    return DescriptorSystem(Em, Am, Bm, Cm)


def make_synthetic(poles, residue_seed, m=1, p=1):
    """Diagonal system with prescribed poles and seeded random B, C.

    E = I, A = diag(poles); B and C get unit-scale complex Gaussian
    entries from a seeded generator, so the same seed reproduces the
    system bitwise. The transfer function is rational with poles exactly
    at the given (distinct) locations.
    """
    poles = np.asarray(list(poles), dtype=np.complex128)
    if poles.size == 0:
        raise ValueError("at least one pole is required")
    if len(set(poles.tolist())) != poles.size:
        raise ValueError("poles must be distinct")
    rng = np.random.default_rng(residue_seed)
    n = poles.size
    B = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2)
    C = (rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))) / np.sqrt(2)
    return DescriptorSystem(np.eye(n), np.diag(poles), B, C)
