"""Barycentric rational surrogates.

The surrogate is H~(z) = sum_j q_j V_j / (z - zeta_j) / sum_j q_j / (z - zeta_j)
with distinct support points zeta_j, stored p-by-m sample blocks V_j and
unit-norm coefficients q. The class holds no formula of its own: every
method evaluates through the sweeps of ``greedyrat.kernels``, the scalar
ones as one-point calls, so they share one collision rule. Evaluation
snaps to the stored sample when z falls within a relative tolerance of a
node, which removes the discontinuity there and makes evaluation total.
"""
import cmath
import json
import warnings

import numpy as np
import scipy.linalg

from . import kernels
from .errors import SupportCollisionError, SurrogatePoleError

# Coefficients this small make the node interpolate only through the snap
# branch; worth a diagnostic but not fatal.
COEFF_WARN = 1e-14

# Arrowhead-pencil eigenvalues beyond this multiple of the support scale
# are the (two) infinite eigenvalues of the singular part.
INF_EIG_FACTOR = 1e13


def _canonical_order(z, what):
    """The order that sorts frequencies z by imaginary, then real part.

    Raises ValueError naming ``what`` when two of z are equal, which
    sorting puts side by side.
    """
    order = np.lexsort((z.real, z.imag))
    z = z[order]
    if np.any(z[1:] == z[:-1]):
        raise ValueError(f"{what} must be pairwise distinct")
    return order


class BarycentricSurrogate:
    def __init__(self, support, values, coeffs):
        support = np.asarray(support, dtype=np.complex128).ravel()
        coeffs = np.asarray(coeffs, dtype=np.complex128).ravel()
        values = np.asarray(values, dtype=np.complex128)
        if values.ndim != 3 or values.shape[0] != support.size:
            raise ValueError("values must be one p-by-m block per support point")
        if coeffs.size != support.size:
            raise ValueError("one coefficient per support point is required")
        if not all(np.isfinite(a).all() for a in (support, coeffs, values)):
            raise ValueError("support points, coefficients and values must be finite")
        _canonical_order(support, "support points")
        nq = np.linalg.norm(coeffs)
        if abs(nq - 1.0) > 1e-12:
            raise ValueError(f"coefficients must have unit 2-norm, got {nq}")
        small = np.abs(coeffs) <= COEFF_WARN
        if small.any():
            warnings.warn(
                "near-zero barycentric coefficient(s) at node(s) "
                f"{support[small]}: interpolation there holds only at exact "
                "collisions",
                stacklevel=2,
            )
        self.support = support
        self.values = values
        self.coeffs = coeffs

    @property
    def n_support(self):
        return self.support.size

    @property
    def output_shape(self):
        return self.values.shape[1:]

    def eval(self, z):
        """Surrogate value at z (the stored sample at a support point)."""
        value = self.eval_grid([z])[0]  # all inf where Q(z) = 0
        if cmath.isinf(value.flat[0]):
            raise SurrogatePoleError(complex(z))
        return value

    def eval_grid(self, grid):
        """Surrogate values over a 1-D array of frequencies (hot path)."""
        return kernels.eval_sweep(grid, self.support, self.coeffs, self.values)

    def eval_denominator(self, z):
        """Q(z) = sum_j q_j / (z - zeta_j); errors at support collisions."""
        q = complex(kernels.denominator([z], self.support, self.coeffs)[0])
        if cmath.isinf(q):
            raise SupportCollisionError(complex(z))
        return q

    def indicator(self, z):
        """Greedy indicator 1/|Q(z)|: 0 at support points, inf where Q(z) = 0."""
        return float(self.indicator_grid([z])[0])

    def indicator_grid(self, grid):
        """Greedy indicator over a 1-D array of frequencies (hot path)."""
        return kernels.indicator_sweep(grid, self.support, self.coeffs)

    def denominator_roots(self):
        """Finite roots of the Lagrange-form numerator of Q.

        Solves the (S+1)-dimensional arrowhead generalized eigenproblem
        [[0, q^T], [1, diag(zeta)]] v = lambda * diag(0, 1, ..., 1) v,
        whose finite eigenvalues are exactly those roots. The two infinite
        eigenvalues of the singular pencil part and any root coinciding
        with a support point are discarded.
        """
        s = self.n_support
        if s < 2:
            raise ValueError("at least two support points are required")
        Aarr = np.zeros((s + 1, s + 1), dtype=np.complex128)
        Aarr[0, 1:] = self.coeffs
        Aarr[1:, 0] = 1.0
        Aarr[1:, 1:] = np.diag(self.support)
        Barr = np.eye(s + 1, dtype=np.complex128)
        Barr[0, 0] = 0.0
        lam = scipy.linalg.eigvals(Aarr, Barr)
        scale = np.abs(self.support).max()
        finite = lam[np.isfinite(lam)]
        finite = finite[np.abs(finite) <= INF_EIG_FACTOR * scale]
        # Q is inf exactly at the roots that collide with a support point
        keep = np.isfinite(kernels.denominator(finite, self.support, self.coeffs))
        return [complex(root) for root in finite[keep]]

    # -- serialization ----------------------------------------------------

    def to_dict(self):
        p, m = self.output_shape
        return {
            "support": _c2pairs(self.support),
            "coeffs": _c2pairs(self.coeffs),
            "shape": [int(p), int(m)],
            "values": [_c2pairs(v.ravel()) for v in self.values],
        }

    @classmethod
    def from_dict(cls, d):
        p, m = d["shape"]
        support = _pairs2c(d["support"])
        coeffs = _pairs2c(d["coeffs"])
        values = np.array([_pairs2c(v).reshape(p, m) for v in d["values"]])
        return cls(support, values, coeffs)

    def save(self, path, extra=None):
        d = self.to_dict()
        if extra:
            d.update(extra)
        with open(path, "w") as f:
            json.dump(d, f, indent=1)

    @classmethod
    def load(cls, path):
        """The surrogate saved at path, and the extra keys save wrote beside it."""
        with open(path) as f:
            d = json.load(f)
        own = ("support", "coeffs", "shape", "values")  # the keys to_dict writes
        return cls.from_dict(d), {k: v for k, v in d.items() if k not in own}


def _c2pairs(arr):
    return [[float(x.real), float(x.imag)] for x in np.asarray(arr).ravel()]


def _pairs2c(pairs):
    return np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
