"""Hot numeric kernels: the one implementation of the barycentric formula.

H~(z) = sum_j q_j V_j / (z - zeta_j) / Q(z) with Q(z) = sum_j q_j / (z - zeta_j)
is evaluated only by the sweeps here, each one numpy pass over a
points-by-support Cauchy matrix; ``BarycentricSurrogate``'s scalar
methods are one-point calls of them. One helper, ``_cauchy_weights``,
decides support collisions (|z - zeta_j| <= SNAP_TOL * (1 + |zeta_j|)) and
zeroes a colliding row before any division; the sweeps then resolve it:
Q is inf there, 1/|Q| is 0 and H~ is the stored sample. Q at a point is
the same in a sweep of any length; H~ of a many-point sweep may differ
from a one-point call in the last bits, as BLAS may order one row's sum
differently.

The greedy driver does not rebuild that matrix every iteration.
``CauchyColumns`` keeps one column 1/(z_k - zeta_j) per *sample* on the
driver's fixed grid, computed once when the sample is taken, so each
indicator sweep is one matrix-vector product. Columns are keyed by sample
and not by support point because the Loewner split of the sorted samples
into support and test sets relabels every sample above a new one: the
support set is not append-only, so a test sample simply gets weight 0.
The columns live in Fortran-order blocks of ``BLOCK`` columns allocated
as samples arrive, so memory follows the sample count, not the cap.
"""
import numpy as np

# Relative snap tolerance for "z coincides with a support point".
SNAP_TOL = 1e-13


def _cauchy_weights(points, support, coeffs):
    """Cauchy weights q_j / (z_k - zeta_j) and the support collisions.

    Returns (w, k, j): w is points-by-support with the rows of colliding
    points zero, and point k[i] collides with support node j[i].
    """
    # As (1, S) rows they match a one-point call's offsets in shape, which
    # keeps that call on numpy's fast same-shape loops.
    support, coeffs = np.asarray(support)[None], np.asarray(coeffs)[None]
    dz = np.asarray(points, dtype=np.complex128)[:, None] - support
    k, j = (np.abs(dz) <= (np.abs(support) + 1.0) * SNAP_TOL).nonzero()
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
    out = w @ values.reshape(len(values), -1) / den[:, None]
    out = out.reshape(len(den), *values.shape[1:])
    out[pole] = np.inf
    if k.size:
        out[k] = values[j]
    return out


# Columns per CauchyColumns block.
BLOCK = 32


class CauchyColumns:
    """Cached Cauchy columns 1/(grid - zeta) of the samples on a fixed grid.

    Grid rows that collide with a sample, and rows passed to ``ban``, are
    excluded: their entries are 0 and ``indicator`` reports them as -1,
    below every admissible value.
    """

    def __init__(self, grid):
        self.grid = np.ascontiguousarray(grid, dtype=np.complex128)
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
        j = self.n_samples
        if j == self.capacity:
            self._blocks.append(np.zeros((self.grid.size, BLOCK), dtype=np.complex128, order="F"))
        w, k, _ = _cauchy_weights(self.grid, [zeta], [1.0])
        self._blocks[-1][:, j % BLOCK] = w[:, 0]
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
        q_grid = np.zeros(self.grid.size, dtype=np.complex128)
        for j in range(0, self.n_samples, BLOCK):
            block = self._blocks[j // BLOCK][:, : self.n_samples - j]
            q_grid += block @ w[j : j + BLOCK]
        with np.errstate(divide="ignore"):
            out = 1.0 / np.abs(q_grid)
        out[self.excluded] = -1.0
        return out
