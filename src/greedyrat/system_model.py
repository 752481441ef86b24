"""Descriptor systems and their transfer-function evaluation.

A system is the tuple (E, A, B, C) of the frequency-domain relations
z*E*X = A*X + B*U, Y = C*X. The output transfer function is
H(z) = C (zE - A)^{-1} B and the state transfer function is
G(z) = (zE - A)^{-1} B. Evaluations go through an LU factorization of
the pencil zE - A; the explicit inverse is never formed.

Everything about the pencil that does not depend on z is worked out once,
when the system is built, and each frequency then only assembles zE - A
from it, factors and solves. Every path does that by one protocol, whose
shared part is written once in ``_Pencil``: a path factors the pencil in
its order perm (``_factor(z)``) and solves with the factors' rows from a
window start w on (``_solve(factors, b, w)``); ``_Pencil`` owns the
order, the random column R, the window, the norms of the resonance rule
below, and the one solve around those steps, ``solve(z, rhs=None)``. It
puts the right-hand side (the window's B when rhs is None) beside R,
gathers it into the pencil's order, splits the two solved blocks,
scatters X back out when the window starts at row 0, judges both blocks
by the growth test below and answers: C X without rhs, X in rhs's shape
with it. DescriptorSystem.solve_pencil, the entry every solve goes
through, only refuses a non-finite z and calls it. The dense and sparse
paths have no order (perm None): they factor in the system's order, so
nothing is gathered or scattered there, and their window is all n rows.

The path is chosen once, at build. Where the union pattern of E and A,
read from CSC copies of dense arrays, has half-bandwidth at most
BAND_MAX after a reverse Cuthill-McKee (RCM) ordering, its structure
alone decides, whatever the storage. A wider pattern goes to SuperLU
when E and A are both sparse and to getrf otherwise, so there the
storage decides; and a dense operand with more nonzeros than any band of
half-width BAND_MAX holds goes to getrf at once, with no CSC copy and no
ordering. Each operand is kept in the storage it was given:

  tridiagonal
           half-bandwidth at most 1 after the RCM ordering, and n >= 3:
           E and A are scattered once into three contiguous diagonals,
           and each frequency costs the band assembly, gttrf and gttrs
  banded   half-bandwidth at most BAND_MAX after the RCM ordering: E and A
           are scattered once into LAPACK band storage, and each frequency
           costs the band assembly, gbtrf and gbtrs
  dense    a wider band with E or A dense: LAPACK getrf/getrs on the n-by-n
           pencil in the system's order, the only path that densifies a
           sparse operand
  sparse   a wider band with E and A sparse: SuperLU on the pencil zE - A
           in the system's order

The band assembly writes a fresh complex band of zE - A: z*e - a on each
band row where E stores an entry, and a cast copy of the fixed 0.0 - a,
kept at build time, on every other row (see ``_PencilBand``). On the
benchmark's RLC line, whose E is diagonal, that is one z row of three.

The build holds little scratch beside what the system keeps. A sparse
operand is converted to CSC once, in the system's dtype; the norms of E
and A copy no indices and are taken before the pencil's scratch exists;
and the band paths scatter E's entries straight into its z rows, with no
full band of E (see ``_PencilBand``). On the benchmark's line the build
peaks at 1.21 times the 6.40 MiB it keeps (tracemalloc). A dense E or A
is normed a block of columns at a time, so its norm copies no more than
about 2**17 entries at once.

H(z) solves only the rows C reads. On the band paths the window of rows
runs from kl rows above the first position, in the pencil's order, that
B or C touches to the end (and holds at least the 3 rows gttrs takes on
the tridiagonal path), and B and C are stored once in that order, cut to
it. kl is the most rows below a row that the factorization may bring up
into it, the lower half-bandwidth (1 on the tridiagonal path). The dense
and sparse paths' row pivoting may swap any two rows, so their window is
all n rows, in the system's order. A window starts kl rows early because
step j of the forward substitution swaps row j with a row at most kl
below it and updates the kl rows below it: every step above the window
finds only zero rows, and the back substitution fills a row from the
rows below it only. Each frequency then costs the band assembly, the
full gttrf or gbtrf, and a gttrs or gbtrs on the trailing slices of the
factors, whose rows are bit for bit those of the full solve. H is the
window's C times them, summed in the RCM order: the same bits as
C @ solve(z, B) where each row of C reads one state through a real
entry, as at the benchmark's ports, and the same to rounding otherwise.
A window of all n rows (ports at both ends of the ordering, or a dense
or sparse path) is C times the full solve. On the band paths the window
of B is kept gathered into the pencil's order from the build on, and on
the dense and sparse paths it is B itself, so a frequency only casts it
to complex. Solves with any other right-hand side (eval_state_transfer,
verify) solve all n rows.

``_Pencil.solve`` refuses a singular pencil by one rule on every path.
Beside its right-hand side every solve solves for R, one fixed real
Gaussian column per system kept in the order the pencil factors in. It
raises ResonanceError at an exactly zero pivot (info > 0 from getrf,
gttrf or gbtrf, or SuperLU's "exactly singular"; the band paths factor
the full band, so above the window too), and where either block fails
the growth test ||Y||_1 (|z| ||E||_1 + ||A||_1) RCOND_MIN <= ||b||_1, as
non-finite rows do: Y is the rows of X solved (H's window, or all n) with b = B (or
rhs), or R's block with b = R. On a band window that block is the
trailing factors' solve for R's window rows R[w:] alone, not rows w: of
the solve with R (R is dense above w); those factors are a Schur
complement's, whose inverse is a block of (zE - A)^{-1} with permuted
columns. Only then is C X formed. Either way, since
||Y||_1 <= ||(zE - A)^{-1}||_1 ||b||_1, the left side over RCOND_MIN
times the right bounds cond_1(zE - A) from below, up to the bound on
||zE - A||_1: Higham's random-vector condition estimate (Accuracy
and Stability of Numerical Algorithms, SIAM 2002). B's block alone misses
a pole that B and C do not reach, where B can lie in the singular pencil's
range and X stay bounded and wrong. R's window block cannot see a
singular block wholly above the window; there H is bit for bit the full
solve's rows, and benchmarks/hidden_poles.py found no inexact reply.

The 1-norms of E, A and B are taken once, at build, on the operands as
the system holds them (a CSC copy of a dense one may differ in the last
bit), and those of R and R[w:] when the pencil is built; a solve then
norms only its solved blocks and rhs. The operands must be finite, and
so must rhs: a NaN or infinite entry, or a 1-norm that overflows, raises
ValueError, at build or before the pencil is factored, where it would
otherwise fail the growth test at every z and read as a resonance.

A real system stays real. When none of E, A, B and C has a complex type,
all four are kept as float64 (int and float32 input is promoted), and the
band paths keep float64 band rows; a system with any complex operand
keeps all four, and its band rows, complex128. Complex numbers appear
only per frequency: in zE - A, in the copy of the right-hand side and in
the results. numpy and scipy cast a real operand to x + 0j before any
complex product, so every product, and with it H(z) and G(z), has the
bits of the complex-typed twin from half the operands' bytes. The LAPACK
routines are always the complex ones (z prefix), looked up once per
system from the complex128 type rather than from an operand, whose d
routines would drop the imaginary parts; the copy of B's window that the
solves overwrite is therefore complex128 too.
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

# A solve block whose growth test (see the module docstring) bounds the
# pencil's reciprocal condition below this makes the pencil singular at z.
# Probe (x86): the random column's growth is at least 1.27e16, about 130x
# 1/RCOND_MIN, at every exact pole of tests/test_descriptor.py's triangular
# systems that no zero pivot refuses, and at most 2.3e5, 4e8x under it, at
# the grid points and midpoints of the benchmark's and the tests' RLC lines
# and spring chains and of an 8-pole diagonal system.
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


def _norm1(M):
    """The 1-norm of a canonical CSC or a dense M: its largest column sum of |M|."""
    if sp.issparse(M):
        # the sums of scipy's abs(M).sum(axis=0), one np.add.reduceat over
        # the starts of the non-empty columns, with no copy of M's indices
        # and no dense row; an empty column sums to 0, which initial covers
        starts = M.indptr[:-1][np.diff(M.indptr) > 0]
        col_sums = np.add.reduceat(np.abs(M.data), starts)
    else:
        # a dense |M| is summed down contiguous columns: on a C-ordered
        # complex 3000-by-2 array that takes 24 us against 68 us in place
        # (x86). It is summed a block of about 2**17 entries at a time, so
        # a dense E or A is not copied whole; a column's sum has the same
        # bits in any block.
        M = M[:, None] if M.ndim == 1 else M
        step = max(1, 2**17 // max(1, len(M)))
        blocks = range(0, max(1, M.shape[1]), step)
        col_sums = np.concatenate([np.asfortranarray(abs(M[:, j : j + step])).sum(axis=0) for j in blocks])
    return float(col_sums.max(initial=0.0))


class _Pencil:
    """A factorizer for one system: solve(z) gives H(z), solve(z, rhs) gives X.

    Each path factors the pencil in its order perm, whose inverse is inv,
    and defines two steps: ``_factor(z)`` factors the permuted pencil, and
    ``_solve(factors, b, w)`` solves with the factors' rows from w on,
    taking that window itself, and returns LAPACK's Fortran-ordered
    solution. ``solve`` is written here alone. The dense and sparse paths
    pass no order (perm and inv None): they factor in the system's order,
    so a right-hand side is used as given and X is LAPACK's solution, a
    view beside R's column; otherwise a right-hand side is gathered into
    the pencil's order and the solution back out of it by ``np.take``.

    solve also solves for R, the random column, drawn in the pencil's
    order, and judges both solved blocks by the module docstring's growth
    test, with the 1-norms of E, A and B that the system took at build
    (``norms``) and those of R, R[w:] and rhs; a block that fails raises
    ResonanceError. Only then does it answer: solve(z, rhs) solves every
    row and gives X in rhs's shape, and solve(z) solves for the system's
    own B from row w on and gives C X, formed from the columns c_w of C.
    An rhs whose 1-norm is not finite raises ValueError before the pencil
    is factored.

    The window starts at row w, kl rows above the first position in the
    pencil's order that B or C touches (see the module docstring), and at
    least min_rows above the end, the fewest rows the path's LAPACK solve
    wrapper accepts; kl is the most rows below a row that the
    factorization may bring up into it. With no order the window is all n
    rows, w is 0, and b_w and c_w are B and C themselves. Otherwise B is
    kept gathered into the pencil's order and cut to the window, in the
    system's dtype, so solve(z) only casts it, beside R's rows, to the
    complex128 copy the LAPACK solve overwrites; C is cut to the same
    columns. When w is 0, C stays whole and solve(z) scatters the solution
    back, as solve(z, B) does.
    """

    min_rows = 1

    def __init__(self, B, C, norms, perm=None, inv=None, kl=None):
        self.perm, self.inv = perm, inv
        self.norm_e, self.norm_a, norm_b = norms
        self.R = _frozen(np.random.default_rng(0).standard_normal(len(B)))
        self.norm_r = _norm1(self.R)
        self.w, self.b_w, self.c_w = 0, B, C
        if perm is not None:
            touched = inv[np.any(B != 0, axis=1) | np.any(C != 0, axis=0)]
            first = touched.min() if touched.size else 0
            self.w = int(min(max(first - kl, 0), perm.size - self.min_rows))
            self.b_w = B[perm[self.w :]]
            self.c_w = np.ascontiguousarray(C[:, perm[self.w :]]) if self.w else C
        # the growth test's bounds for solve(z): the norms of B and R[w:]
        self.bounds_w = norm_b, _norm1(self.R[self.w :])

    def solve(self, z, rhs=None):
        if rhs is None:
            w, b, bounds = self.w, self.b_w, self.bounds_w
        else:
            bounds = _norm1(rhs), self.norm_r
            if not np.isfinite(bounds[0]):
                raise ValueError("the right-hand side is not finite")
            w, b = 0, rhs if self.perm is None else np.take(rhs, self.perm, axis=0)
        factors = self._factor(z)
        b = b.reshape(len(b), -1)
        # [b, R[w:]], the complex128 Fortran-ordered block LAPACK overwrites
        x = np.empty((len(b), b.shape[1] + 1), dtype=np.complex128, order="F")
        x[:, :-1], x[:, -1] = b, self.R[w:]
        x = self._solve(factors, x, w)
        X, X_R = x[:, :-1], x[:, -1]
        # X.T is C-contiguous, so the scatter gathers whole rows and returns
        # X's Fortran order; np.take(X, inv, axis=0) reads strided (0.5
        # against 0.22 ms on an n = 50000 line with two columns, 2-core x86)
        X = X if w or self.perm is None else np.take(X.T, self.inv, axis=1).T
        scale = abs(z) * self.norm_e + self.norm_a
        # written so that a NaN on the left fails it
        if not all(_norm1(Y) * scale * RCOND_MIN <= bound for Y, bound in zip((X, X_R), bounds)):
            raise ResonanceError(z)
        # a band window sums C X over its rows in the RCM order; all n rows
        # come back in the system's order, so C X is summed as C @ solve(z, B)
        return self.c_w @ X if rhs is None else X.reshape(rhs.shape)


class _DensePencil(_Pencil):
    """LAPACK getrf/getrs on the dense pencil, in the system's order.

    getrf's row swaps may bring any row up, so the pencil has no order and
    its window is all n rows.
    """

    kind = "dense"

    def __init__(self, E, A, B, C, norms):
        super().__init__(B, C, norms)
        self.E, self.A = (M.toarray() if sp.issparse(M) else M for M in (E, A))
        # LAPACK getrf directly rather than lu_factor: lu_factor warns on an
        # exactly singular pencil, whose zero pivot _check_info reports as a
        # ResonanceError, and silencing that warning per call would reset
        # every once-per-location warning filter in the process.
        self.getrf, self.getrs = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), dtype=np.complex128)

    def _factor(self, z):
        lu, piv, info = self.getrf(z * self.E - self.A, overwrite_a=True)
        _check_info(info, "getrf", z)
        return lu, piv

    def _solve(self, factors, b, w):
        lu, piv = factors
        x, info = self.getrs(lu, piv, b, overwrite_b=True)
        _check_info(info, "getrs")
        return x


class _TridiagonalPencil(_Pencil):
    """LAPACK gttrf/gttrs on the RCM-permuted pencil with half-bandwidth <= 1.

    The pencil's band is 3-by-n and C-ordered: the permuted entry (r, c)
    sits in column c of row 1 + r - c, so row 0 from column 1 on is the
    superdiagonal, row 1 the diagonal and row 2 up to column n - 2 the
    subdiagonal. Each frequency assembles it (see ``_PencilBand``) and
    hands contiguous row slices to a tridiagonal LU that makes no BLAS
    calls.
    """

    kind = "tridiagonal"
    # scipy's gttrs wrapper, like its gttrf, rejects fewer than 3 rows
    min_rows = 3

    def __init__(self, E, A, B, C, norms, perm, inv):
        super().__init__(B, C, norms, perm, inv, kl=1)
        self.band = _PencilBand(E, A, inv, rows=3, diag_row=1, order="C")
        self.gttrf, self.gttrs = scipy.linalg.get_lapack_funcs(("gttrf", "gttrs"), dtype=np.complex128)

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


class _BandedPencil(_Pencil):
    """LAPACK gbtrf/gbtrs on the RCM-permuted pencil in band storage.

    The pencil's band has LAPACK's full 2*kl + ku + 1 rows, Fortran-ordered,
    whose top kl rows (gbtrf's room for the pivoting fill) are zero. Each
    frequency assembles it (see ``_PencilBand``) and costs one banded LU
    and one banded solve.
    """

    kind = "banded"

    def __init__(self, E, A, B, C, norms, perm, inv, kl, ku):
        super().__init__(B, C, norms, perm, inv, kl)
        self.kl, self.ku = kl, ku
        rows = 2 * kl + ku + 1
        self.band = _PencilBand(E, A, inv, rows=rows, diag_row=kl + ku, order="F")
        self.gbtrf, self.gbtrs = scipy.linalg.get_lapack_funcs(("gbtrf", "gbtrs"), dtype=np.complex128)

    def _factor(self, z):
        kl, ku = self.kl, self.ku
        lu, piv, info = self.gbtrf(self.band.assemble(z), kl, ku, overwrite_ab=True)
        _check_info(info, "gbtrf", z)
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
    """SuperLU on the pencil zE - A, in the system's order.

    SuperLU's row pivoting may bring any row up, so the pencil has no order
    and its window is all n rows.
    """

    kind = "sparse"

    def __init__(self, E, A, B, C, norms):
        super().__init__(B, C, norms)
        self.E, self.A = E, A

    def _factor(self, z):
        pencil = (z * self.E - self.A).tocsc()
        try:
            with _stdout_to_stderr():
                return spla.splu(pencil)
        except RuntimeError as exc:
            raise ResonanceError(z, f"sparse LU failed at z = {z}: {exc}") from exc

    def _solve(self, lu, b, w):
        return lu.solve(b)


def _pattern(M):
    """Structure of a canonical CSC matrix, as a CSC matrix of ones."""
    return sp.csc_matrix((np.ones(M.nnz, dtype=np.int8), M.indices, M.indptr), shape=M.shape)


def _permuted_entries(M, inv):
    """(r - c, c) for each stored entry (r, c) of M[perm][:, perm]; M is CSC, inv inverts perm."""
    c = np.repeat(inv, np.diff(M.indptr))
    offsets = inv[M.indices]
    offsets -= c
    return offsets, c


def _band(M, inv, diag_row, rows=None):
    """Band rows of M[perm][:, perm] as (indices, rows); M is canonical CSC, inv inverts perm.

    Entry (r, c) of the permuted matrix goes to band row diag_row + r - c
    of column c, in a zero C-ordered array of M's dtype: all rows of the
    band when rows is given, and otherwise only the rows in which M stores
    an entry, ascending.
    """
    offsets, c = _permuted_entries(M, inv)
    offsets += diag_row
    kept, offsets = np.unique(offsets, return_inverse=True) if rows is None else (np.arange(rows), offsets)
    band = np.zeros((kept.size, inv.size), dtype=M.dtype)
    band[offsets, c] = M.data
    return kept, band


class _PencilBand:
    """zE - A in band storage, assembled per frequency from rows kept once.

    A band row in which E stores an entry is a z row: it keeps E's row,
    scattered straight from E's entries, and A's (see ``_band``) in the
    system's dtype, and ``assemble(z)`` forms it as z*e - a with
    np.multiply and np.subtract, the operations and bits of
    z*band_e - band_a. Every other row, including the zero padding and
    gbtrf's fill rows, is fixed: it keeps 0.0 - A's row and is cast-copied.
    For Re z >= +0, z*0 is +0+0j, so a fixed row has the bits of
    z*band_e - band_a too, and so does H(z) on every grid. For Re z < 0
    (or -0), z*0 may carry signed zeros, so only the sign of a zero may
    differ from z*band_e - band_a (a structurally zero entry, or the zero
    imaginary part of a real one), and no value does.

    A's band is kept whole, each C-contiguous row a z row's a or, negated
    in place, a fixed row. So the build peaks at what it keeps plus the
    larger of E's and A's scatter indices.
    """

    def __init__(self, E, A, inv, rows, diag_row, order):
        z, e = _band(E, inv, diag_row)
        z = z.tolist()
        _, a = _band(A, inv, diag_row, rows)
        self.shape, self.order = a.shape, order
        self.z_rows = [(i, e_i, a[i]) for i, e_i in zip(z, e)]
        self.fixed_rows = [(i, np.subtract(0.0, a[i], out=a[i])) for i in range(rows) if i not in z]

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


def _ordering(E, A):
    """The RCM ordering perm of the union pattern of CSC E and A, its inverse, kl and ku.

    kl and ku are the permuted union's lower and upper half-bandwidths.
    The pattern and the index arrays are freed on return.
    """
    union = _pattern(E) + _pattern(A)
    perm = reverse_cuthill_mckee((union + union.T).tocsr(), symmetric_mode=True)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    offsets, _ = _permuted_entries(union, inv)
    return perm, inv, int(offsets.max(initial=0)), int(-offsets.min(initial=0))


def _analyse_pencil(E, A, B, C):
    """The pencil factorizer for E and A: by their structure where a band holds it.

    A pattern too wide for the band paths goes, by storage, to SuperLU when
    E and A are both sparse and to getrf otherwise; a dense operand too
    full for any band goes to getrf before any ordering. B and C are the
    system's own, which the factorizer's solve(z) solves for. E, A, B and C
    must be finite: a NaN or infinite entry, or a 1-norm of E, A or B that
    overflows, raises ValueError naming the operand.
    """
    # the growth test's norms, taken on the operands as the system holds
    # them: a CSC copy of a dense one may differ in the last bit, and the
    # norms' scratch comes before the pencil's, not on top of it
    norms = tuple(_norm1(M) for M in (E, A, B))
    for name, finite in zip("EABC", [*np.isfinite(norms), np.isfinite(C).all()]):
        if not finite:
            raise ValueError(f"{name} is not finite")
    sparse = sp.issparse(E) and sp.issparse(A)
    if not sparse:
        # no ordering bands more entries than a band of half-width BAND_MAX
        # holds, so such pencils skip the CSC copies and the ordering
        band_nnz = A.shape[0] * (2 * BAND_MAX + 1)
        if any((M.nnz if sp.issparse(M) else np.count_nonzero(M)) > band_nnz for M in (A, E)):
            return _DensePencil(E, A, B, C, norms)
    Ec, Ac = (M if sp.issparse(M) else sp.csc_matrix(M) for M in (E, A))
    perm, inv, kl, ku = _ordering(Ec, Ac)
    # smaller ones, which scipy's gttrf wrapper rejects, stay banded
    if max(kl, ku) <= 1 and perm.size >= _TridiagonalPencil.min_rows:
        return _TridiagonalPencil(Ec, Ac, B, C, norms, perm, inv)
    if max(kl, ku) <= BAND_MAX:
        return _BandedPencil(Ec, Ac, B, C, norms, perm, inv, kl, ku)
    return (_SparsePencil if sparse else _DensePencil)(E, A, B, C, norms)


class DescriptorSystem:
    """Immutable (E, A, B, C) system; E and A may be scipy sparse matrices.

    E and A each keep the storage they were given, and a missing E is the
    sparse identity; only the ``dense`` path densifies a sparse operand.
    B, C, E and A are private read-only copies (a sparse operand's data,
    indices and indptr arrays), so neither a caller who changes the arrays
    it passed in nor an in-place write to ``sys.A.data`` changes the
    system or its transfer function. The pencil is analysed once, here, so
    solve_pencil only assembles, factors and solves at each frequency (see
    ``pencil_path``); on the band paths the assembly recomputes only the
    band rows in which E stores an entry.

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

    @staticmethod
    def _as_square(M, name, dtype):
        if sp.issparse(M):
            if M.format == "csc":
                M = M.astype(dtype)  # a copy even when M already has the dtype
            else:
                # tocsc makes the system's own copy; the cast then copies
                # only data, and only when its dtype is not the system's
                M = M.tocsc()
                M.data = M.data.astype(dtype, copy=False)
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

        Fixed at construction: by the structure of E and A where their RCM
        band is at most BAND_MAX wide, and otherwise by their storage, getrf
        unless both are sparse (see the module docstring).
        """
        return self._pencil.kind

    def solve_pencil(self, z, rhs=None):
        """Solve (zE - A) X = rhs, raising ResonanceError where it is singular.

        Without rhs, solve for the system's own B and return C X, p-by-m:
        on the band paths only the rows C reads are solved for (see the
        module docstring). z is taken as complex, so X is complex128 on a
        real system too. A z with an infinite or NaN part raises
        ValueError before any arithmetic: the band paths keep the rows of
        zE - A that z does not touch, which would stay finite. Everything
        else is the pencil's one solve, ``_Pencil.solve``: it refuses a
        non-finite rhs with ValueError, judges the solved rows and those of
        the random column's solution by the module docstring's growth test,
        and only then forms C X. Every solve of the system comes through
        here.
        """
        z = complex(z)
        if not cmath.isfinite(z):
            raise ValueError(f"z = {z} is not finite")
        return self._pencil.solve(z, None if rhs is None else np.asarray(rhs))

    def eval_transfer(self, z):
        """H(z) = C (zE - A)^{-1} B as a dense p-by-m array."""
        return self.solve_pencil(z)

    def eval_state_transfer(self, z):
        """G(z) = (zE - A)^{-1} B as a dense n-by-m array."""
        return self.solve_pencil(z, self.B)

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
