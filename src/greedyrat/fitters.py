"""Barycentric coefficient fitters: least-squares Loewner and MRI.

Both compute unit-norm coefficients q as the right singular vector of the
smallest singular value of a data matrix; they differ in which matrix.
The phase of q is normalized so the entry of largest modulus is real and
positive, which makes the fits reproducible (the underlying function is
invariant under rescaling of q).
"""
import warnings
from dataclasses import dataclass, field

import numpy as np

from .barycentric import BarycentricSurrogate


@dataclass(frozen=True)
class SamplePartition:
    support: list = field(default_factory=list)
    test: list = field(default_factory=list)

    def __post_init__(self):
        if not self.support:
            raise ValueError("support set must be nonempty")
        zs = [s.z for s in self.support] + [s.z for s in self.test]
        if len(set(zs)) != len(zs):
            raise ValueError("support and test frequencies must be pairwise distinct")


def _canonical_sort(samples):
    return sorted(samples, key=lambda s: (s.z.imag, s.z.real))


def partition_samples(samples):
    """Alternate sorted samples into support (even index) and test (odd).

    Sorting is by ascending imaginary part, then real part, so the split
    is independent of input order.
    """
    samples = _canonical_sort(samples)
    if len({s.z for s in samples}) != len(samples):
        raise ValueError("sample frequencies must be distinct")
    return SamplePartition(support=samples[0::2], test=samples[1::2])


def _smallest_right_singular_vector(M, ncols):
    if M.shape[0] == 0:
        # Documented determinism rule for an empty system: e_1 for a single
        # unknown, otherwise the last canonical basis vector.
        q = np.zeros(ncols, dtype=np.complex128)
        q[0 if ncols == 1 else -1] = 1.0
        return q
    # A tall or square M has a full set of right singular vectors in the
    # thin SVD; a wide one needs the full basis, whose last row spans part
    # of the null space. Ties between trailing singular values resolve to
    # the last row, which LAPACK returns deterministically.
    _, _, Vh = np.linalg.svd(M, full_matrices=M.shape[0] < M.shape[1])
    return Vh[-1].conj()


def _normalize_phase(q):
    q = q / np.linalg.norm(q)
    k = int(np.argmax(np.abs(q)))
    phase = q[k] / abs(q[k])
    return q * phase.conjugate()


def fit_loewner(part):
    """Least-squares Loewner fit of the barycentric coefficients.

    Stacks one vec((H(z'_l) - H(z_j)) / (z'_l - z_j)) block row per test
    frequency and takes the unit-norm minimizer of the residual, i.e. the
    right singular vector of the smallest singular value.
    """
    zsup, vsup = _stack(part.support)
    L = _loewner(zsup, vsup, part.test)
    q = _normalize_phase(_smallest_right_singular_vector(L, zsup.size))
    return BarycentricSurrogate(zsup, vsup, q)


def loewner_matrix(part):
    """The stacked Loewner system matrix (exposed for diagnostics/tests)."""
    return _loewner(*_stack(part.support), part.test)


def _stack(samples):
    """Frequencies and value blocks of the samples as two arrays."""
    return np.array([x.z for x in samples]), np.array([x.value for x in samples])


def _loewner(zsup, vsup, test):
    """Block row l holds vec((H(z'_l) - H(z_j)) / (z'_l - z_j)) over the support j."""
    s, p, m = vsup.shape
    ztest = np.array([t.z for t in test], dtype=np.complex128)
    vtest = np.array([t.value for t in test]).reshape(-1, p, m)
    blocks = (vtest[:, None] - vsup) / (ztest[:, None] - zsup)[:, :, None, None]
    return blocks.transpose(0, 2, 3, 1).reshape(-1, s)


def fit_mri(samples):
    """Minimal-rational-interpolation fit: minimize ||sum_j q_j H(z_j)||_F.

    All samples become support points. Intended for tall data (p*m >= S,
    e.g. state samples); with fewer rows than samples the null space is
    nontrivial and spurious coefficient vectors can appear, so that case
    is flagged with a warning.
    """
    samples = _canonical_sort(samples)
    if not samples:
        raise ValueError("at least one sample is required")
    if len({s.z for s in samples}) != len(samples):
        raise ValueError("sample frequencies must be distinct")
    zs, vals = _stack(samples)
    s = len(samples)
    pm = vals.shape[1] * vals.shape[2]
    if pm < s:
        # Constant text, so the default once-per-location filter shows it
        # once per run rather than once per greedy iteration.
        warnings.warn(
            "MRI with fewer value entries per sample than samples: "
            "the minimizer may be spurious",
            stacklevel=2,
        )
    M = vals.reshape(s, pm).T
    q = _normalize_phase(_smallest_right_singular_vector(M, s))
    return BarycentricSurrogate(zs, vals, q)


def fit(samples, method):
    """Dispatch on fitter name: 'loewner' or 'mri'."""
    if method == "loewner":
        return fit_loewner(partition_samples(samples))
    if method == "mri":
        return fit_mri(samples)
    raise ValueError(f"unknown fitter {method!r}")
