"""Hot numeric kernels: barycentric sweeps over dense frequency grids.

Each sweep is one vectorized numpy pass over a grid-by-support Cauchy
matrix 1/(z_k - zeta_j). A grid point within ``snap_radius`` of any
support point counts as a collision, which the sweeps resolve explicitly
instead of dividing by (nearly) zero.
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
