"""Barycentric coefficient fitters: least-squares Loewner and MRI.

Both compute unit-norm coefficients q as the right singular vector of the
smallest singular value of a data matrix; they differ in which matrix.
A matrix at least 17/9 times as tall as it is wide is first reduced to
its triangular QR factor R, the step LAPACK's SVD itself takes there
(Chan's R-SVD, ACM TOMS 1982), so the fit never forms the tall left
singular vectors it does not use; q is bit for bit the same.
The phase of q is normalized so the entry of largest modulus is real and
positive, which makes the fits reproducible (the underlying function is
invariant under rescaling of q).

Both fits read samples in canonical order (ascending imaginary, then
real part) as a frequency array and a (S, p, m) value array: Loewner takes
the even rows as support and the odd ones as test points, MRI every row.
"""
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .barycentric import BarycentricSurrogate
from .system_model import FrequencySample


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


class SampleArrays(Sequence):
    """Samples as arrays, z and (S, p, m) values; a sequence of FrequencySample."""

    def __init__(self, z, values):
        self.z, self.values = z, values

    def __len__(self):
        return len(self.z)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return SampleArrays(self.z[j], self.values[j])
        return FrequencySample(self.z[j], self.values[j])


def _canonical_sort(samples):
    return sorted(samples, key=lambda s: (s.z.imag, s.z.real))


def partition_samples(samples):
    """Alternate sorted samples into support (even index) and test (odd).

    Sorting is by ascending imaginary part, then real part, so the split
    is independent of input order.
    """
    samples = _canonical_sort(samples)
    return SamplePartition(support=samples[0::2], test=samples[1::2])


def _smallest_right_singular_vector(M, ncols):
    if M.shape[0] == 0:
        # Documented determinism rule for an empty system: e_1 for a single
        # unknown, otherwise the last canonical basis vector.
        q = np.zeros(ncols, dtype=np.complex128)
        q[0 if ncols == 1 else -1] = 1.0
        return q
    rows, cols = M.shape
    if rows >= 17 * cols // 9:
        # zgesdd's own crossover (MNTHR1): from here on it factors M = QR
        # and takes the SVD of R, so doing that step first skips only the
        # product U = Q U_R and leaves Vh bit for bit the same. numpy's qr
        # calls the same LAPACK as its svd; scipy's may be another build.
        M = np.linalg.qr(M, mode="r")
    # A tall or square M has a full set of right singular vectors in the
    # thin SVD; a wide one needs the full basis, whose last row spans part
    # of the null space. Ties between trailing singular values resolve to
    # the last row, which LAPACK returns deterministically.
    _, _, Vh = np.linalg.svd(M, full_matrices=rows < cols)
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
    return _fit_loewner(*_stack(part.support), *_stack(part.test))


def _fit_loewner(zsup, vsup, ztest, vtest):
    q = _smallest_right_singular_vector(_loewner(zsup, vsup, ztest, vtest), zsup.size)
    return BarycentricSurrogate(zsup, vsup, _normalize_phase(q))


def loewner_matrix(part):
    """The stacked Loewner system matrix (exposed for diagnostics/tests)."""
    return _loewner(*_stack(part.support), *_stack(part.test))


def _stack(samples):
    """Frequencies and value blocks of the samples as two arrays."""
    return np.array([x.z for x in samples]), np.array([x.value for x in samples])


def _loewner(zsup, vsup, ztest, vtest):
    """Block row l holds vec((H(z'_l) - H(z_j)) / (z'_l - z_j)) over the support j."""
    s, p, m = vsup.shape
    vtest = vtest.reshape(-1, p, m)  # an empty test set stacks to shape (0,)
    blocks = (vtest[:, None] - vsup) / (ztest[:, None] - zsup)[:, :, None, None]
    return blocks.transpose(0, 2, 3, 1).reshape(-1, s)


def fit_mri(samples):
    """Minimal-rational-interpolation fit: minimize ||sum_j q_j H(z_j)||_F.

    All samples become support points. Intended for tall data (p*m >= S,
    e.g. state samples); with fewer rows than samples the null space is
    nontrivial and spurious coefficient vectors can appear, so that case
    is flagged with a warning.
    """
    return _fit_sorted(*_stack(_canonical_sort(samples)), "mri")


def _fit_sorted(z, values, method):
    """Fit samples in canonical order: Loewner on even (support) and odd
    (test) rows, MRI with every row as support."""
    if not len(z):
        raise ValueError("at least one sample is required")
    if method == "loewner":
        # the surrogate keeps contiguous copies of its rows, not strided views
        return _fit_loewner(z[0::2].copy(), values[0::2].copy(), z[1::2], values[1::2])
    s, p, m = values.shape
    if p * m < s:
        # Constant text, so the default once-per-location filter shows it
        # once per run rather than once per greedy iteration.
        warnings.warn(
            "MRI with fewer value entries per sample than samples: "
            "the minimizer may be spurious",
            stacklevel=3,
        )
    q = _normalize_phase(_smallest_right_singular_vector(values.reshape(s, p * m).T, s))
    return BarycentricSurrogate(z, values, q)


def fit(samples, method):
    """Dispatch on fitter name: 'loewner' or 'mri'.

    SampleArrays are fitted as they are, and an MRI surrogate keeps their
    arrays; other samples are sorted and stacked first.
    """
    if method not in ("loewner", "mri"):
        raise ValueError(f"unknown fitter {method!r}")
    if not isinstance(samples, SampleArrays):
        samples = SampleArrays(*_stack(_canonical_sort(samples)))
    return _fit_sorted(samples.z, samples.values, method)
