"""Hot numeric kernels: barycentric sweeps over dense frequency grids.

Each sweep is one vectorized numpy pass over a grid-by-support Cauchy
matrix 1/(z_k - zeta_j). A grid point within ``snap_radius`` of any
support point counts as a collision, which the sweeps resolve explicitly
instead of dividing by (nearly) zero.

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


def snap_radius(zeta):
    """Collision radius around support point(s) zeta; scalar or array."""
    return SNAP_TOL * (1.0 + abs(zeta))


def _offsets(grid, support):
    """Grid-minus-support differences and the grid points that collide."""
    dz = grid[:, None] - support[None, :]
    hit = (np.abs(dz) <= snap_radius(support)[None, :]).any(axis=1)
    return dz, hit


def abs_denominator(grid, support, coeffs):
    """|sum_j q_j / (z - zeta_j)| at each grid point; inf at support collisions."""
    grid = np.ascontiguousarray(grid, dtype=np.complex128)
    support = np.ascontiguousarray(support, dtype=np.complex128)
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    dz, hit = _offsets(grid, support)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.abs((coeffs[None, :] / dz).sum(axis=1))
    out[hit] = np.inf
    return out


def indicator_sweep(grid, support, coeffs):
    """Greedy indicator 1/|Q| over a grid; 0 at support collisions."""
    absq = abs_denominator(grid, support, coeffs)
    with np.errstate(divide="ignore"):
        out = 1.0 / absq
    out[~np.isfinite(absq)] = 0.0
    return out


def eval_sweep(grid, support, coeffs, values):
    """Barycentric surrogate values over a grid, shape (len(grid), p, m).

    Support collisions return the stored sample; a vanishing denominator
    away from the nodes yields an all-inf block (the caller flags it).
    """
    grid = np.ascontiguousarray(grid, dtype=np.complex128)
    support = np.ascontiguousarray(support, dtype=np.complex128)
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    values = np.ascontiguousarray(values, dtype=np.complex128)
    dz, hit = _offsets(grid, support)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = coeffs[None, :] / dz
        den = w.sum(axis=1)
        out = np.einsum("ks,spm->kpm", w, values) / den[:, None, None]
    for k in np.nonzero(hit)[0]:
        out[k] = values[np.argmin(np.abs(dz[k]))]
    out[~hit & (den == 0)] = np.inf
    return out


# Columns per CauchyColumns block.
BLOCK = 32


class CauchyColumns:
    """Cached Cauchy columns 1/(grid - zeta) of the samples on a fixed grid.

    Grid rows within ``snap_radius`` of a sample, and rows passed to
    ``ban``, are excluded: their entries are 0 and ``indicator`` reports
    them as -1, below every admissible value.
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
        dz = self.grid - zeta
        hit = np.abs(dz) <= snap_radius(zeta)
        np.divide(1.0, dz, out=self._blocks[-1][:, j % BLOCK], where=~hit)
        self.excluded |= hit
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
