"""Descriptor systems and their transfer-function evaluation.

A system is the tuple (E, A, B, C) of the frequency-domain relations
z*E*X = A*X + B*U, Y = C*X. The output transfer function is
H(z) = C (zE - A)^{-1} B and the state transfer function is
G(z) = (zE - A)^{-1} B. Evaluations go through an LU factorization of
the pencil zE - A; the explicit inverse is never formed.

Everything about the pencil that does not depend on z is worked out once,
when the system is built, and each frequency then only assembles zE - A
from it, factors and solves. The path is fixed by the structure of E and A alone, read from CSC
copies of dense arrays; each operand is kept in the storage it was given:

  tridiagonal
           half-bandwidth at most 1 after a reverse Cuthill-McKee (RCM)
           ordering of the union pattern of E and A, and n >= 3: E and
           A are scattered once into three contiguous diagonals, and each
           frequency costs the band assembly, gttrf and gttrs
  banded   half-bandwidth at most BAND_MAX after the RCM ordering: E and A
           are scattered once into LAPACK band storage, and each frequency
           costs the band assembly, gbtrf and gbtrs
  dense    a wider band with E or A dense: LAPACK getrf/getrs on the n-by-n
           pencil, the only path that densifies a sparse operand
  sparse   a wider band with E and A sparse: SuperLU on the pencil zE - A

The band assembly writes a fresh complex band of zE - A: z*e - a on each
band row where E has an entry, and a cast copy of the fixed 0.0 - a,
kept at build time, on every other row (see ``_PencilBand``). On the
benchmark's RLC line, whose E is diagonal, that is one z row of three.

On the two band paths H(z) solves only the rows C reads. The window of
rows runs from kl rows above the first RCM position that B or C touches
to the end (kl is the lower half-bandwidth, 1 on the tridiagonal path),
and B and C are stored once in the RCM order, cut to it. It starts kl
rows early because step j of the forward substitution swaps row j with a
row at most kl below it and updates the kl rows below it: every step
above the window finds only zero rows, and the back substitution fills a
row from the rows below it only. Each frequency then costs the band
assembly, the full gttrf or gbtrf, and a gttrs or gbtrs on the trailing
slices of the factors, whose rows are bit for bit those of the full
solve. H is the window's C times them, summed in the RCM order: the same
bits as C @ solve(z, B) where each row of C reads one state through a
real entry, as at the benchmark's ports, and the same to rounding
otherwise.
A window of all n rows (ports at both ends of the ordering) is C times
the full solve. Either way the window of B is kept gathered into the RCM
order from the build on, so a frequency only casts it to complex. Solves
with any other right-hand side (eval_state_transfer, verify), and H(z) on
the dense and sparse paths, solve all n rows.

solve_pencil raises ResonanceError on every path at an exactly zero
pivot (info > 0 from getrf, gttrf or gbtrf, or SuperLU's "exactly
singular"; the band paths factor the full band, so above the window too),
and where the rows X it solved (H's window, or all n) fail the growth test
||X||_1 (|z| ||E||_1 + ||A||_1) RCOND_MIN <= ||B||_1 (or ||rhs||_1), as
non-finite rows do; only then is C X formed. Since ||X||_1 <=
||(zE - A)^{-1}||_1 ||B||_1, the left side over RCOND_MIN times the right
bounds cond_1(zE - A) from below, up to the bound on ||zE - A||_1 (Higham,
SIAM 2002). At a pole that B and C do not reach, X can stay bounded and
be wrong, so the test can pass an inexact H. The banded and sparse paths,
where it does so, also raise when a pivot of U falls below RCOND_MIN times
the largest one, which refuses most such H; no probe found one elsewhere.

A real system stays real. When none of E, A, B and C has a complex type,
all four are kept as float64 (int and float32 input is promoted), and the
band paths keep float64 band rows; a system with any complex operand
keeps all four, and its band rows, complex128. Complex numbers appear
only per frequency: in zE - A, in the copy of the right-hand side and in
the results. numpy and scipy cast a real operand to x + 0j before any
complex product, so every product, and with it H(z) and G(z), has the
bits of the complex-typed twin from half the operands' bytes. The LAPACK
routines are always the complex ones (z prefix), looked up from the
complex128 type rather than from a band, whose d routines would drop the
imaginary parts; the copy of B's window that gbtrs and gttrs overwrite is
therefore complex128 too.
"""
import cmath
import contextlib
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.io import mmread, mmwrite
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import ResonanceError

# Solved rows whose growth test (see the module docstring) bounds the
# pencil's reciprocal condition below this, or a banded or sparse factor
# whose pivot ratio falls below it, make the pencil singular at that z.
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


def _is_real(M):
    """True when M, sparse or array-like, has no complex (or object) type."""
    return (M.dtype if sp.issparse(M) else np.asarray(M).dtype).kind in "biuf"


def _frozen(M):
    """M, which the caller owns alone, made read-only."""
    M.setflags(write=False)
    return M


def _check_info(info, routine, z=None):
    """Raise ValueError on an illegal argument, ResonanceError(z) on a zero pivot."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK {routine}")
    if info > 0:
        raise ResonanceError(z)


def _check_pivots(z, diag):
    """Raise ResonanceError when U's diagonal says the pencil is singular at z."""
    du = np.abs(diag)
    if du.min() <= RCOND_MIN * max(du.max(), 1e-300):
        raise ResonanceError(z)


def _norm1(M):
    """The 1-norm of a sparse or dense M: its largest column sum of |M|."""
    # a dense |M| is summed down contiguous columns: on a C-ordered
    # complex 3000-by-2 array that takes 24 us against 68 us in place (x86)
    col_sums = abs(M).sum(axis=0) if sp.issparse(M) else np.asfortranarray(abs(M)).sum(axis=0)
    return float(np.asarray(col_sums).max(initial=0.0))


class _Pencil:
    """A factorizer for one system: solve(z, rhs) gives X, window(z) the rows C reads.

    window(z) solves for the system's own B and returns those rows of X
    with the columns of C that read them; the base solves all n rows, and
    the band paths override it with the trailing-window solve.
    """

    def __init__(self, B, C):
        self.B, self.C = B, C

    def window(self, z):
        return self.solve(z, self.B), self.C


class _DensePencil(_Pencil):
    """LAPACK getrf/getrs on the dense pencil."""

    kind = "dense"

    def __init__(self, E, A, B, C):
        super().__init__(B, C)
        self.E, self.A = (M.toarray() if sp.issparse(M) else M for M in (E, A))

    def solve(self, z, rhs):
        P = z * self.E - self.A
        # LAPACK getrf directly rather than lu_factor: lu_factor warns on an
        # exactly singular pencil, whose zero pivot _check_info reports as a
        # ResonanceError, and silencing that warning per call would reset
        # every once-per-location warning filter in the process.
        getrf, = scipy.linalg.get_lapack_funcs(("getrf",), (P,))
        lu, piv, info = getrf(P, overwrite_a=True)
        _check_info(info, "getrf", z)
        return scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)


class _OrderedPencil(_Pencil):
    """A pencil factored in the RCM order perm, whose inverse is inv.

    Subclasses factor the permuted pencil (``_factor``) and solve with the
    factors' rows from w on (``_solve(factors, b, w)``, which takes that
    window itself and returns LAPACK's Fortran-ordered solution); solve
    passes 0, window the window's w. A right-hand side is gathered into
    the RCM order and the solution back out of it by ``np.take``. The
    window starts at row w, kl rows above the first RCM position that B
    or C touches (see the module docstring). The system's own B is kept
    gathered into the RCM order and cut to the window, in the system's
    dtype, so window(z) only casts it to the complex128 copy the LAPACK
    solve overwrites; C is cut to the same columns. When w is 0, C stays
    whole and window(z) gathers the solution back, as solve(z, B) does.
    """

    def __init__(self, B, C, perm, inv, kl, min_rows):
        super().__init__(B, C)
        self.perm, self.inv = perm, inv
        touched = inv[np.any(B != 0, axis=1) | np.any(C != 0, axis=0)]
        first = touched.min() if touched.size else 0
        # min_rows: the fewest rows the LAPACK solve wrapper accepts
        self.w = int(min(max(first - kl, 0), perm.size - min_rows))
        rows = perm[self.w :]
        self.b_w = B[rows]
        self.c_w = np.ascontiguousarray(C[:, rows]) if self.w else C

    def _unpermute(self, x):
        # x.T is C-contiguous, so this gathers whole rows and returns x's
        # Fortran order; np.take(x, inv, axis=0) reads strided (0.5 against
        # 0.22 ms on an n = 50000 line with two columns, 2-core x86)
        return np.take(x.T, self.inv, axis=1).T

    def solve(self, z, rhs):
        factors = self._factor(z)
        rhs = np.asarray(rhs, dtype=np.complex128)
        b = np.take(rhs, self.perm, axis=0).reshape(self.perm.size, -1)
        return self._unpermute(self._solve(factors, b, 0)).reshape(rhs.shape)

    def window(self, z):
        x = self._solve(self._factor(z), self.b_w.astype(np.complex128, order="F"), self.w)
        return (x if self.w else self._unpermute(x)), self.c_w


class _TridiagonalPencil(_OrderedPencil):
    """LAPACK gttrf/gttrs on the RCM-permuted pencil with half-bandwidth <= 1.

    The pencil's band is 3-by-n and C-ordered: the permuted entry (r, c)
    sits in column c of row 1 + r - c, so row 0 from column 1 on is the
    superdiagonal, row 1 the diagonal and row 2 up to column n - 2 the
    subdiagonal. Each frequency assembles it (see ``_PencilBand``) and
    hands contiguous row slices to a tridiagonal LU that makes no BLAS
    calls.
    """

    kind = "tridiagonal"

    def __init__(self, E, A, B, C, perm, inv):
        # scipy's gttrs wrapper, like its gttrf, rejects fewer than 3 rows
        super().__init__(B, C, perm, inv, kl=1, min_rows=3)
        self.band = _PencilBand(E, A, inv, rows=3, diag_row=1, order="C")
        self.gttrf, self.gttrs = scipy.linalg.get_lapack_funcs(
            ("gttrf", "gttrs"), dtype=np.complex128
        )

    def _factor(self, z):
        t = self.band.assemble(z)
        du, d, dl = t[0, 1:], t[1], t[2, :-1]
        dl, d, du, du2, ipiv, info = self.gttrf(
            dl, d, du, overwrite_dl=1, overwrite_d=1, overwrite_du=1
        )
        _check_info(info, "gttrf", z)
        return dl, d, du, du2, ipiv

    def _solve(self, factors, b, w):
        dl, d, du, du2, ipiv = factors
        x, info = self.gttrs(dl[w:], d[w:], du[w:], du2[w:], ipiv[w:] - w, b, overwrite_b=True)
        _check_info(info, "gttrs")
        return x


class _BandedPencil(_OrderedPencil):
    """LAPACK gbtrf/gbtrs on the RCM-permuted pencil in band storage.

    The pencil's band has LAPACK's full 2*kl + ku + 1 rows, Fortran-ordered,
    whose top kl rows (gbtrf's room for the pivoting fill) are zero. Each
    frequency assembles it (see ``_PencilBand``) and costs one banded LU
    and one banded solve.
    """

    kind = "banded"

    def __init__(self, E, A, B, C, perm, inv, kl, ku):
        super().__init__(B, C, perm, inv, kl=kl, min_rows=1)
        self.kl, self.ku = kl, ku
        rows = 2 * kl + ku + 1
        self.band = _PencilBand(E, A, inv, rows=rows, diag_row=kl + ku, order="F")
        self.gbtrf, self.gbtrs = scipy.linalg.get_lapack_funcs(
            ("gbtrf", "gbtrs"), dtype=np.complex128
        )

    def _factor(self, z):
        kl, ku = self.kl, self.ku
        lu, piv, info = self.gbtrf(self.band.assemble(z), kl, ku, overwrite_ab=True)
        _check_info(info, "gbtrf", z)
        _check_pivots(z, lu[kl + ku])
        return lu, piv

    def _solve(self, factors, b, w):
        lu, piv = factors
        x, info = self.gbtrs(lu[:, w:], self.kl, self.ku, b, piv[w:] - w, overwrite_b=True)
        _check_info(info, "gbtrs")
        return x


# Descriptor 1 is the process's: two threads that swapped it at once could
# leave it pointing at descriptor 2.
_FD1_LOCK = threading.Lock()


@contextlib.contextmanager
def _stdout_to_stderr():
    """Point file descriptor 1 at descriptor 2 while the block runs.

    At an exactly singular pencil SuperLU's OpenBLAS calls print
    "** On entry to ZTRSV ... illegal value" lines to descriptor 1 before
    splu raises, which would mix them into a command's stdout report.
    """
    with _FD1_LOCK:
        sys.stdout.flush()
        saved = os.dup(1)
        try:
            os.dup2(2, 1)
            yield
        finally:
            os.dup2(saved, 1)
            os.close(saved)


class _SparsePencil(_Pencil):
    """SuperLU on the pencil zE - A."""

    kind = "sparse"

    def __init__(self, E, A, B, C):
        super().__init__(B, C)
        self.E, self.A = E, A

    def solve(self, z, rhs):
        pencil = (z * self.E - self.A).tocsc()
        try:
            with _stdout_to_stderr():
                lu = spla.splu(pencil)
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
    column c in a zero rows-by-n array of M's dtype.
    """
    r, c = _permuted_entries(M, inv)
    band = np.zeros((rows, inv.size), dtype=M.dtype, order=order)
    band[diag_row + r - c, c] = M.data
    return band


def _plus_zero(row):
    """True when every entry of a band row is +0, in real and imaginary part."""
    return not any(part.any() or np.signbit(part).any() for part in (row.real, row.imag))


class _PencilBand:
    """zE - A in band storage, assembled per frequency from rows kept once.

    E and A are scattered once into rows-by-n bands (see ``_band``), of
    which the pencil keeps each row once, in the system's dtype. A row in
    which E has an entry is a z row: it keeps E's and A's rows, and
    ``assemble(z)`` forms it as z*e - a with np.multiply and np.subtract,
    the operations and bits of z*band_e - band_a. Every other row,
    including the zero padding and gbtrf's fill rows, is fixed: it keeps
    0.0 - A's row and is cast-copied, and E's all-zero rows are not
    stored. For Re z >= +0, z*0 is +0+0j, so a fixed row has the bits of
    z*band_e - band_a too, and so does H(z) on every grid. For Re z < 0
    (or -0), z*0 may carry signed zeros, so only the sign of a zero may
    differ from z*band_e - band_a (a structurally zero entry, or the zero
    imaginary part of a real one), and no value does. A -0 entry of E
    would change a sign even for Re z >= +0, so it makes its row a z row.
    """

    def __init__(self, E, A, inv, rows, diag_row, order):
        band_e = _band(E, inv, rows, diag_row, order)
        band_a = _band(A, inv, rows, diag_row, order)
        self.shape, self.order = band_a.shape, order
        self.z_rows, self.fixed_rows = [], []
        for i in range(rows):
            # copies, contiguous, so the bands themselves are not kept
            e, a = band_e[i].copy(), band_a[i].copy()
            if _plus_zero(e):
                self.fixed_rows.append((i, np.subtract(0.0, a, out=a)))
            else:
                self.z_rows.append((i, e, a))

    def assemble(self, z):
        """A fresh complex128 band of zE - A, in the band's order."""
        band = np.empty(self.shape, dtype=np.complex128, order=self.order)
        for i, e, a in self.z_rows:
            row = band[i]
            np.multiply(z, e, out=row)
            np.subtract(row, a, out=row)
        for i, fixed in self.fixed_rows:
            band[i] = fixed
        return band


def _analyse_pencil(E, A, B, C):
    """The pencil factorizer for E and A, chosen by their structure alone.

    A pattern too wide for the band paths goes to SuperLU when E and A
    are both sparse and to getrf otherwise. B and C are the system's own,
    which the factorizer's window(z) solves for and returns.
    """
    sparse = sp.issparse(E) and sp.issparse(A)
    if not sparse:
        # no ordering bands more entries than a band of half-width BAND_MAX
        # holds, so such pencils skip the CSC copies and the ordering
        band_nnz = A.shape[0] * (2 * BAND_MAX + 1)
        if any((M.nnz if sp.issparse(M) else np.count_nonzero(M)) > band_nnz for M in (A, E)):
            return _DensePencil(E, A, B, C)
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
        return _TridiagonalPencil(Ec, Ac, B, C, perm, inv)
    if max(kl, ku) <= BAND_MAX:
        return _BandedPencil(Ec, Ac, B, C, perm, inv, kl, ku)
    return _SparsePencil(E, A, B, C) if sparse else _DensePencil(E, A, B, C)


class DescriptorSystem:
    """Immutable (E, A, B, C) system; E and A may be scipy sparse matrices.

    E and A each keep the storage they were given, and a missing E is the
    sparse identity; only the ``dense`` path densifies a sparse operand.
    B, C, E and A are private read-only copies (a sparse operand's data,
    indices and indptr arrays), so neither a caller who changes the arrays
    it passed in nor an in-place write to ``sys.A.data`` changes the
    system or its transfer function. The pencil's structure, not its
    storage, is analysed once, here, so solve_pencil only assembles,
    factors and solves at each frequency (see ``pencil_path``); on the
    band paths the assembly recomputes only the band rows in which E has
    an entry.

    The copies are float64 when none of the operands given has a complex
    type and complex128 otherwise (see the module docstring): a real
    system holds about half the bytes of its complex-typed twin and returns
    the same bits, always complex128, from every solve.
    """

    def __init__(self, E, A, B, C):
        real = all(_is_real(M) for M in (E, A, B, C) if M is not None)
        dtype = np.float64 if real else np.complex128
        A = self._as_square(A, "A", dtype)
        n = A.shape[0]
        if E is None:
            E = sp.identity(n, format="csc")
        E = self._as_square(E, "E", dtype)
        B, C = (_frozen(np.atleast_2d(np.array(M, dtype=dtype))) for M in (B, C))
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
        self._pencil = _analyse_pencil(E, A, B, C)
        self._norm_e, self._norm_a, self._norm_b = (_norm1(M) for M in (E, A, B))

    @staticmethod
    def _as_square(M, name, dtype):
        if sp.issparse(M):
            # astype copies even when M already has the dtype
            M = M.tocsc().astype(dtype)
            M.sum_duplicates()
            for part in (M.data, M.indices, M.indptr):
                _frozen(part)
        else:
            M = _frozen(np.atleast_2d(np.array(M, dtype=dtype)))
        if M.shape[0] != M.shape[1]:
            raise ValueError(f"{name} is {M.shape}, not square")
        return M

    @property
    def pencil_path(self):
        """How solve_pencil factors: "tridiagonal", "banded", "sparse" or "dense".

        Fixed at construction by the structure of E and A alone.
        """
        return self._pencil.kind

    def solve_pencil(self, z, rhs=None):
        """Solve (zE - A) X = rhs, raising ResonanceError where it is singular.

        Without rhs, solve for the system's own B and return C X, p-by-m:
        on the band paths only the rows C reads are solved for (see the
        module docstring). z is taken as complex, so X is complex128 on a
        real system too. A z with an infinite or NaN part raises
        ValueError before any arithmetic: the band paths keep the rows of
        zE - A that z does not touch, which would stay finite. The rows
        solved must pass the module docstring's growth test before C X is formed.
        """
        z = complex(z)
        if not cmath.isfinite(z):
            raise ValueError(f"z = {z} is not finite")
        if rhs is None:
            X, C = self._pencil.window(z)
        else:
            X = self._pencil.solve(z, rhs)
        bound = self._norm_b if rhs is None or rhs is self.B else _norm1(np.asarray(rhs))
        # written so that a NaN on the left fails it
        if not _norm1(X) * (abs(z) * self._norm_e + self._norm_a) * RCOND_MIN <= bound:
            raise ResonanceError(z)
        # a band window sums C X over its rows in the RCM order; all n rows
        # come back in the system's order, so C X is summed as C @ solve(z, B)
        return C @ X if rhs is None else X

    def eval_transfer(self, z):
        """H(z) = C (zE - A)^{-1} B as a dense p-by-m array."""
        return self.solve_pencil(z)

    def eval_state_transfer(self, z):
        """G(z) = (zE - A)^{-1} B as a dense n-by-m array."""
        return self.solve_pencil(z, self.B)

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
