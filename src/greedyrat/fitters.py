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

`fit(samples, method)` is the one entry point. It sorts and checks every
input: the samples, a list of FrequencySample stacked first or SampleArrays,
are gathered into canonical order (ascending imaginary, then real part) as a
frequency array and a (S, p, m) value array, and a repeated frequency is an
error. Loewner takes the even rows as support and the odd ones as test
points, MRI every row.
"""
import warnings
from collections.abc import Sequence

import numpy as np

from .barycentric import BarycentricSurrogate
from .system_model import FrequencySample


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


def _sorted_arrays(samples):
    """Samples in canonical order as a frequency and a value array."""
    if not isinstance(samples, SampleArrays):
        samples = list(samples)  # any iterable, read once
        samples = SampleArrays(np.array([s.z for s in samples]), np.array([s.value for s in samples]))
    order = np.lexsort((samples.z.real, samples.z.imag))
    z = samples.z[order]
    if np.any(z[1:] == z[:-1]):  # sorting puts equal frequencies side by side
        raise ValueError("sample frequencies must be pairwise distinct")
    return z, samples.values.take(order, axis=0)


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


def loewner_matrix(samples):
    """The Loewner system matrix of fit(samples, "loewner"), for diagnostics and tests."""
    return _loewner(*_sorted_arrays(samples))[2]


def _loewner(z, values):
    """Support, its values and the Loewner matrix of samples in canonical order:
    the even rows are support and the odd rows test frequencies z'_l, and block
    row l holds vec((H(z'_l) - H(z_j)) / (z'_l - z_j)) over the support j."""
    zsup, vsup, ztest, vtest = z[0::2], values[0::2], z[1::2], values[1::2]
    blocks = (vtest[:, None] - vsup) / (ztest[:, None] - zsup)[:, :, None, None]
    return zsup, vsup, blocks.transpose(0, 2, 3, 1).reshape(-1, zsup.size)


def _fit_sorted(z, values, method):
    """Fit samples in canonical order. Loewner minimizes the Loewner residual,
    MRI ||sum_j q_j H(z_j)||_F with every sample as support. MRI is meant for
    tall data (p*m >= S, e.g. state samples): with fewer rows the null space
    is nontrivial and q may be spurious, so that case warns."""
    if not len(z):
        raise ValueError("at least one sample is required")
    if method == "loewner":
        z, values, M = _loewner(z, values)
        # the surrogate keeps contiguous copies of its rows, not strided views
        z, values = z.copy(), values.copy()
    else:
        s, p, m = values.shape
        if p * m < s:
            # Constant text, so the default once-per-location filter shows it
            # once per run rather than once per greedy iteration.
            warnings.warn(
                "MRI with fewer value entries per sample than samples: "
                "the minimizer may be spurious",
                stacklevel=3,
            )
        M = values.reshape(s, p * m).T
    q = _normalize_phase(_smallest_right_singular_vector(M, z.size))
    return BarycentricSurrogate(z, values, q)


def fit(samples, method):
    """Fit with 'loewner' or 'mri': FrequencySamples or SampleArrays with
    distinct frequencies, in any order."""
    if method not in ("loewner", "mri"):
        raise ValueError(f"unknown fitter {method!r}")
    return _fit_sorted(*_sorted_arrays(samples), method)
