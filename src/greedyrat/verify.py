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

Both checks take G~ as an argument: ``state_surrogate(sur, sys)`` costs
one state solve per support point, so a caller builds it once and hands
the same one to each check (``greedyrat verify`` also reads it to match
the support values against the system).

The module only computes: ``greedyrat verify`` writes the reports'
per-point values to verify.csv. Its solves run in this process, one after
another. Mapping its 100 probes over the CPUs (greedyrat.parallel) would
gain on a large system (32 against 48 ms on the benchmark's n = 3000
chain) but lose about 3x on small ones (10 against 3 ms on an 8-pole
system), so moving them is left to a change that measures both. A probe
where the pencil is singular fails the check: ``check_prop2`` raises the
first such probe's ResonanceError.
"""
import math
from dataclasses import dataclass, field

import numpy as np

from .barycentric import BarycentricSurrogate
from .errors import GreedyratError
from .greedy import adjusted_relative_error

# Random probe frequencies this close (relatively) to a support node are
# rejected and redrawn.
NODE_REJECT = 1e-6

# Draws rejected in a row before a range is refused as lying within
# NODE_REJECT of the nodes. Node f_j rejects an interval about
# 2 NODE_REJECT f_j wide, at any scale of f, so a redraw is rare on any
# range those intervals leave mostly open, and one that needs this many in
# a row is all but covered by them.
PROBE_REDRAWS = 1000

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
    # filled in place, in support order: a stack of a list would hold every block twice
    values = np.empty((sur.n_support, sys.n, sys.m), dtype=np.complex128)
    for block, z in zip(values, sur.support):
        block[...] = sys.eval_state_transfer(z)
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

    ``seed`` is anything np.random.default_rng takes. Raises GreedyratError
    when PROBE_REDRAWS draws in a row land within NODE_REJECT of a node.
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        for _ in range(PROBE_REDRAWS):
            z = 1j * math.exp(rng.uniform(math.log(f_min), math.log(f_max)))
            # a product, so that a node at 0 divides nothing
            if np.all(np.abs(z - sur.support) > NODE_REJECT * np.abs(sur.support)):
                out.append(z)
                break
        else:
            raise GreedyratError(
                f"no probe frequency in [{f_min}, {f_max}]: {PROBE_REDRAWS} draws in a row "
                f"fell within {NODE_REJECT} (relative) of a support node"
            )
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


def check_prop1(sys, sur, zs, gsur):
    """Constancy of rho * |Q| plus the underlying vector identity.

    ``gsur`` is ``state_surrogate(sur, sys)``; ``zs`` must not be empty.
    """
    if not len(zs):
        raise ValueError("check_prop1: the probe list zs is empty")
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


def check_prop2(sys, sur, zs, delta, gsur):
    """eps * |Q| = Delta pointwise; also reports max Delta over zs.

    ``gsur`` is ``state_surrogate(sur, sys)``; ``zs`` must not be empty.
    """
    if not len(zs):
        raise ValueError("check_prop2: the probe list zs is empty")
    btilde = _coeff_state_sum(sys, sur, gsur)
    deltas = []
    residuals = []
    errs = []
    rhs = np.hstack([sys.B, btilde])

    for z in zs:
        # one factorization per point serves both H(z) and the Delta numerator
        X = sys.solve_pencil(complex(z), rhs)
        H, phi_btilde = sys.C @ X[:, : sys.m], sys.C @ X[:, sys.m :]
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

