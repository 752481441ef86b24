"""Hot numeric kernels: the one implementation of the barycentric formula.

H~(z) = sum_j q_j V_j / (z - zeta_j) / Q(z) with Q(z) = sum_j q_j / (z - zeta_j)
is evaluated only by the sweeps here, each one numpy pass over a
points-by-support Cauchy matrix; ``BarycentricSurrogate``'s scalar
methods are one-point calls of them. One rule, ``_collides``, decides
support collisions (|z - zeta_j| <= SNAP_TOL * (1 + |zeta_j|)), and one
helper, ``_cauchy_weights``, zeroes a colliding row before any division
for every sweep; the sweeps then resolve it:
Q is inf there, 1/|Q| is 0 and H~ is the stored sample. Q and H~ at a
point are the same, bit for bit, in a sweep of any length.

The greedy driver does not rebuild that matrix every iteration.
``CauchyColumns`` keeps one column per *sample* on the driver's fixed
grid, computed once when the sample is taken, so column j belongs to the
j-th training sample of the driver's SampleStore and each indicator sweep
is one matrix product. The grid and the samples lie on the imaginary axis,
z_k = i f_k and zeta_j = i f_j, so 1/(z_k - zeta_j) = -i D[k, j] with the
real D[k, j] = 1/(f_k - f_j), and |Q| = |D q|: the cache stores D, and a
sweep multiplies it by the real and imaginary parts of q together, which
reads half the bytes of a complex column. Columns are keyed by sample
and not by support point because the Loewner split of the sorted samples
into support and test sets relabels every sample above a new one: the
support set is not append-only, so a test sample simply gets weight 0.
The columns live in float64 Fortran-order blocks of ``BLOCK`` columns
allocated as samples arrive, so memory follows the sample count, not the
cap.
"""
import numpy as np

# Relative snap tolerance for "z coincides with a support point".
SNAP_TOL = 1e-13


def _collides(distance, zeta):
    """Whether a point at the given distance from the node zeta coincides with it."""
    return distance <= (np.abs(zeta) + 1.0) * SNAP_TOL


def _cauchy_weights(points, support, coeffs):
    """Cauchy weights q_j / (z_k - zeta_j) and the support collisions.

    Returns (w, k, j): w is points-by-support with the rows of colliding
    points zero, and point k[i] collides with support node j[i].
    """
    # As (1, S) rows they match a one-point call's offsets in shape, which
    # keeps that call on numpy's fast same-shape loops.
    support, coeffs = np.asarray(support)[None], np.asarray(coeffs)[None]
    dz = np.asarray(points, dtype=np.complex128)[:, None] - support
    k, j = _collides(np.abs(dz), support).nonzero()
    if k.size:
        dz[k] = np.inf  # q / inf = 0: the colliding row is zeroed, not divided by ~0
    return coeffs / dz, k, j


def denominator(points, support, coeffs):
    """Q(z) = sum_j q_j / (z - zeta_j) at each point; inf at support collisions."""
    w, k, _ = _cauchy_weights(points, support, coeffs)
    q = w.sum(axis=1)
    q[k] = np.inf
    return q


def abs_denominator(points, support, coeffs):
    """|Q| at each point; inf at support collisions."""
    return np.abs(denominator(points, support, coeffs))


def indicator_sweep(points, support, coeffs):
    """Greedy indicator 1/|Q| at each point; 0 at support collisions, inf where Q = 0."""
    with np.errstate(divide="ignore"):
        return 1.0 / abs_denominator(points, support, coeffs)


def eval_sweep(points, support, coeffs, values):
    """Barycentric surrogate values at each point, shape (len(points), p, m).

    Support collisions return the stored sample; a vanishing denominator
    away from the nodes yields an all-inf block (the caller flags it).
    """
    values = np.asarray(values)
    w, k, j = _cauchy_weights(points, support, coeffs)
    den = w.sum(axis=1)
    pole = den == 0  # the zeroed colliding rows too; they are refilled last
    den[pole] = 1.0
    # a stack of one-row products: BLAS sums each row as for a one-point call
    out = np.matmul(w[:, None, :], values.reshape(len(values), -1))[:, 0] / den[:, None]
    out = out.reshape(len(den), *values.shape[1:])
    out[pole] = np.inf
    if k.size:
        out[k] = values[j]
    return out


# Columns per CauchyColumns block.
BLOCK = 32


class CauchyColumns:
    """Cached real Cauchy columns 1/(f - f_j) of the samples on a fixed grid i*f.

    The grid must lie on the imaginary axis. Grid rows that collide with a
    sample, and rows passed to ``ban``, are excluded: their entries are 0
    and ``indicator`` reports them as -1, below every admissible value.
    """

    def __init__(self, grid):
        self.grid = np.ascontiguousarray(grid, dtype=np.complex128)
        if np.any(self.grid.real != 0):
            raise ValueError("CauchyColumns needs a grid on the imaginary axis")
        self.excluded = np.zeros(self.grid.size, dtype=bool)
        self._blocks = []
        self._column = {}  # sample frequency -> column index

    @property
    def n_samples(self):
        return len(self._column)

    @property
    def capacity(self):
        """Allocated columns: the sample count rounded up to whole blocks."""
        return BLOCK * len(self._blocks)

    def add(self, zeta):
        """Append the column of a newly taken sample."""
        zeta = complex(zeta)
        if zeta.real != 0:
            raise ValueError(f"sample {zeta} is off the imaginary axis")
        j = self.n_samples
        if j == self.capacity:
            self._blocks.append(np.zeros((self.grid.size, BLOCK), dtype=np.float64, order="F"))
        d = self.grid.imag - zeta.imag
        # |i d| == |d| in floating point: the decisions of _cauchy_weights
        k = _collides(np.abs(d), zeta).nonzero()[0]
        d[k] = np.inf
        self._blocks[-1][:, j % BLOCK] = 1.0 / d
        self.excluded[k] = True
        self._column[zeta] = j

    def ban(self, k):
        """Exclude grid index k, e.g. a resonant frequency."""
        self.excluded[k] = True

    def indicator(self, sur):
        """1/|Q| of a surrogate fitted to the cached samples; -1 where excluded."""
        w = np.zeros(self.n_samples, dtype=np.complex128)
        for zeta, q in zip(sur.support, sur.coeffs):
            w[self._column[complex(zeta)]] = q
        w = w.view(np.float64).reshape(-1, 2)  # columns Re q, Im q
        dq = np.zeros((self.grid.size, 2))
        for j in range(0, self.n_samples, BLOCK):
            block = self._blocks[j // BLOCK][:, : self.n_samples - j]
            dq += block @ w[j : j + BLOCK]
        with np.errstate(divide="ignore"):
            out = 1.0 / np.abs(dq.view(np.complex128)[:, 0])
        out[self.excluded] = -1.0
        return out
