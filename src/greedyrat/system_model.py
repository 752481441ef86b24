"""Descriptor systems and their transfer-function evaluation.

A system is the tuple (E, A, B, C) of the frequency-domain relations
z*E*X = A*X + B*U, Y = C*X. The output transfer function is
H(z) = C (zE - A)^{-1} B and the state transfer function is
G(z) = (zE - A)^{-1} B. Evaluations go through a sparse or dense LU
factorization of the pencil; the explicit inverse is never formed.
"""
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.io import mmread, mmwrite

from .errors import ResonanceError

# Reciprocal-condition estimate below this means the pencil is treated as
# singular at the queried frequency.
RCOND_MIN = 1e-14


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


class DescriptorSystem:
    """Immutable (E, A, B, C) system; E and A may be scipy sparse matrices."""

    def __init__(self, E, A, B, C):
        A = self._as_square(A, "A")
        n = A.shape[0]
        if E is None:
            E = sp.identity(n, dtype=np.complex128, format="csc")
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

    @staticmethod
    def _as_square(M, name):
        if sp.issparse(M):
            M = M.tocsc().astype(np.complex128)
        else:
            M = np.atleast_2d(np.asarray(M, dtype=np.complex128))
        if M.shape[0] != M.shape[1]:
            raise ValueError(f"{name} is {M.shape}, not square")
        return M

    @property
    def is_sparse(self):
        return sp.issparse(self.A) or sp.issparse(self.E)

    def solve_pencil(self, z, rhs):
        """Solve (zE - A) X = rhs with a cheap singularity guard."""
        if self.is_sparse:
            P = (z * self.E - self.A).tocsc()
            try:
                lu = spla.splu(P)
            except RuntimeError as exc:
                raise ResonanceError(z, f"sparse LU failed at z = {z}: {exc}") from exc
            du = np.abs(lu.U.diagonal())
            if du.min() <= RCOND_MIN * max(du.max(), 1e-300):
                raise ResonanceError(z)
            return lu.solve(np.asarray(rhs, dtype=np.complex128))
        P = z * self.E - self.A
        # LAPACK getrf directly rather than lu_factor: lu_factor warns on an
        # exactly singular pencil, which the pivot check below reports as a
        # ResonanceError, and silencing that warning per call would reset
        # every once-per-location warning filter in the process.
        getrf, = scipy.linalg.get_lapack_funcs(("getrf",), (P,))
        lu, piv, info = getrf(P, overwrite_a=True)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK getrf")
        du = np.abs(np.diag(lu))
        if du.min() <= RCOND_MIN * max(du.max(), 1e-300):
            raise ResonanceError(z)
        return scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)

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
    import os

    if not os.path.exists(path):
        raise FileNotFoundError(f"matrix file not found: {path}")
    try:
        M = mmread(path)
    except ValueError as exc:
        raise ValueError(f"cannot parse Matrix Market file {path}: {exc}") from exc
    if sp.issparse(M):
        return M.tocsc().astype(np.complex128)
    return np.asarray(M, dtype=np.complex128)


def load_matrix_market(prefix=None, *, E=None, A=None, B=None, C=None):
    """Load a DescriptorSystem from Matrix Market files.

    Either pass a ``prefix`` resolving to ``<prefix>.E.mtx`` etc., or the
    four paths explicitly. A missing E file means E = identity.
    """
    if prefix is not None:
        A = A or f"{prefix}.A.mtx"
        B = B or f"{prefix}.B.mtx"
        C = C or f"{prefix}.C.mtx"
        if E is None:
            cand = f"{prefix}.E.mtx"
            import os

            E = cand if os.path.exists(cand) else None
    if A is None or B is None or C is None:
        raise ValueError("A, B and C files are all required")
    Em = _read_mtx(E) if E is not None else None
    Am, Bm, Cm = _read_mtx(A), _read_mtx(B), _read_mtx(C)
    if sp.issparse(Bm):
        Bm = Bm.toarray()
    if sp.issparse(Cm):
        Cm = Cm.toarray()
    return DescriptorSystem(Em, Am, np.atleast_2d(Bm), np.atleast_2d(Cm))


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
