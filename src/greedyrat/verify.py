"""Intrusive checks linking the indicator to residual and error.

Two facts are probed numerically on systems small enough for dense state
samples:

  1. rho(G~, z) * |Q(z)| is a z-independent constant gamma, equal to
     ||sum_j q_j E G(z_j)||_F / ||B||_F, where G~ reuses the surrogate's
     coefficients with state samples G(z_j). When that sum cancels to
     rounding (an exact fit), gamma, and with it the checks, is noise.
  2. eps(H~, z) * |Q(z)| = Delta(z) with
     Delta(z) = ||C (zE-A)^{-1} Btilde||_F / (||H(z)||_F + delta) and
     Btilde = E sum_j q_j G(z_j).

Delta is the frequency-dependent factor separating the computable
indicator from the true output error; it cannot be observed without the
system matrices, which is why these diagnostics ship as a module.

The module only computes: ``greedyrat verify`` writes the reports'
per-point values to verify.csv. A probe where the pencil is singular fails
the check: ``check_prop2`` raises the first such probe's ResonanceError.
"""
import math
from dataclasses import dataclass, field

import numpy as np

from .barycentric import BarycentricSurrogate
from .greedy import adjusted_relative_error
from .parallel import map_points

# Random probe frequencies this close (relatively) to a support node are
# rejected and redrawn.
NODE_REJECT = 1e-6

# ``greedyrat verify`` draws its probes from default_rng([seed,
# PROBE_STREAM]), apart from greedy.random_test_points' default_rng(seed):
# with one stream a randomized run's probes would be the very frozen points
# its stop was decided on.
PROBE_STREAM = 1

# Below this ratio ||E sum_j q_j G(z_j)||_F / sum_j |q_j| ||E G(z_j)||_F
# the residual numerator is cancellation down to rounding (about 1e-14 of
# the terms, so at least 1% noise), the surrogate is exact and the identity
# checks measure noise. Measured with loewner on 10k-point grids: 5.5e-14
# on an exact fit of the 8-pole 2x2 synthetic system (make_synthetic,
# residue seed 1, batch, n_batch = 3), against 3.6e-5 and 9.9e-7 on the
# 100-mass spring chain of tests/conftest.py (lookahead, tol 1e-3 and 1e-6).
EXACT_FIT_RATIO = 1e-12


def state_surrogate(sur, sys):
    """Surrogate over n-by-m state blocks with the same support and coefficients."""
    values = np.array([sys.eval_state_transfer(z) for z in sur.support])
    return BarycentricSurrogate(sur.support, values, sur.coeffs)


def _residual(sys, gsur, z, b_norm):
    """The residual r = (zE - A) G~(z) - B and rho = ||r||_F / b_norm, b_norm = ||B||_F."""
    # Multiplying E and A by the n-by-m block G skips assembling the n-by-n pencil.
    G = gsur.eval(z)
    r = z * (sys.E @ G) - sys.A @ G - sys.B
    return r, float(np.linalg.norm(r) / b_norm)


def residual_norm(sys, gsur, z):
    """rho = ||(zE - A) G~(z) - B||_F / ||B||_F."""
    return _residual(sys, gsur, z, np.linalg.norm(sys.B))[1]


def draw_probe_points(sur, f_min, f_max, count, seed=0):
    """Log-uniform random frequencies i*f, redrawn away from support nodes.

    ``seed`` is anything np.random.default_rng takes.
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        z = 1j * math.exp(rng.uniform(math.log(f_min), math.log(f_max)))
        d = np.abs(z - sur.support) / (1.0 + np.abs(sur.support))
        if d.min() > NODE_REJECT:
            out.append(z)
    return out


@dataclass
class Prop1Report:
    gamma_estimate: float
    gamma_formula: float
    max_relative_spread: float
    max_identity_residual: float
    coeff_sum_ratio: float  # ||E sum_j q_j G(z_j)||_F / sum_j |q_j| ||E G(z_j)||_F
    absq: list = field(default_factory=list)
    rho_absq: list = field(default_factory=list)


@dataclass
class Prop2Report:
    delta: list
    identity_residuals: list
    delta_max: float
    eps: list = field(default_factory=list)


def _coeff_state_sum(sys, sur, gsur):
    """E * sum_j q_j G(z_j), the constant residual numerator."""
    acc = np.tensordot(sur.coeffs, gsur.values, axes=1)
    return sys.E @ acc


def check_prop1(sys, sur, zs, gsur=None):
    """Constancy of rho * |Q| plus the underlying vector identity."""
    gsur = gsur or state_surrogate(sur, sys)
    rhs = _coeff_state_sum(sys, sur, gsur)
    rhs_norm = np.linalg.norm(rhs)
    b_norm = np.linalg.norm(sys.B)
    terms = sum(abs(q) * np.linalg.norm(sys.E @ G) for q, G in zip(sur.coeffs, gsur.values))
    absq = []
    prods = []
    ident = []
    for z in zs:
        q = sur.eval_denominator(z)
        r, rho = _residual(sys, gsur, z, b_norm)
        absq.append(abs(q))
        prods.append(rho * absq[-1])
        ident.append(np.linalg.norm(q * r - rhs) / rhs_norm)
    prods = np.array(prods)
    mean = float(prods.mean())
    spread = float(np.max(np.abs(prods - mean)) / mean) if mean > 0 else 0.0
    return Prop1Report(
        gamma_estimate=mean,
        gamma_formula=float(rhs_norm / b_norm),
        max_relative_spread=spread,
        max_identity_residual=float(np.max(ident)),
        coeff_sum_ratio=float(rhs_norm / terms),
        absq=absq,
        rho_absq=prods.tolist(),
    )


def check_prop2(sys, sur, zs, delta, gsur=None):
    """eps * |Q| = Delta pointwise; also reports max Delta over zs."""
    gsur = gsur or state_surrogate(sur, sys)
    btilde = _coeff_state_sum(sys, sur, gsur)
    deltas = []
    residuals = []
    errs = []
    rhs = np.hstack([sys.B, btilde])

    def outputs(z):
        # one factorization per point serves both H(z) and the Delta
        # numerator; a worker sends back these p-by-m products, not X
        X = sys.solve_pencil(complex(z), rhs)
        return sys.C @ X[:, : sys.m], sys.C @ X[:, sys.m :]

    for z, (H, phi_btilde) in zip(zs, map_points(outputs, zs)):
        d = float(np.linalg.norm(phi_btilde) / (np.linalg.norm(H) + delta))
        eps = adjusted_relative_error(H, sur.eval(z), delta)
        lhs = eps * abs(sur.eval_denominator(z))
        denom = max(abs(d), 1e-300)
        deltas.append(d)
        residuals.append(abs(lhs - d) / denom)
        errs.append(eps)
    return Prop2Report(
        delta=deltas,
        identity_residuals=residuals,
        delta_max=float(np.max(deltas)),
        eps=errs,
    )

