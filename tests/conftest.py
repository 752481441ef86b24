import contextlib
import os
import signal
import sys

# One BLAS thread, set before numpy loads, as ratbench runs: a BLAS thread
# pool would make this process multi-threaded, and greedyrat.parallel does
# not fork such a process, so the tests of its workers could not run.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from greedyrat import BarycentricSurrogate  # noqa: E402


def pin_workers(monkeypatch, workers):
    """Make greedyrat.parallel.map_points split any input of at least
    `workers` points into `workers` chunks, the first mapped in this process
    and each other in a forked child; 1 keeps every call in-process.
    """
    from greedyrat import parallel

    assert workers == 1 or parallel.fork_is_safe(), "this process runs threads: no worker can fork"
    monkeypatch.setattr(parallel, "usable_cpus", lambda: workers)


@contextlib.contextmanager
def time_bound(seconds):
    """Fail, rather than hang, a block still running after `seconds` (SIGALRM)."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def random_surrogate(n_support, seed, p=1, m=1, scale=1.0):
    """Random barycentric surrogate with distinct support in the unit box."""
    rng = np.random.default_rng(seed)
    while True:
        support = scale * (rng.uniform(-1, 1, n_support) + 1j * rng.uniform(-1, 1, n_support))
        d = np.abs(support[:, None] - support[None, :])
        np.fill_diagonal(d, np.inf)
        if d.min() > 1e-2 * scale:
            break
    q = rng.standard_normal(n_support) + 1j * rng.standard_normal(n_support)
    q /= np.linalg.norm(q)
    values = rng.standard_normal((n_support, p, m)) + 1j * rng.standard_normal((n_support, p, m))
    return BarycentricSurrogate(support, values, q)


def rational_11(z):
    """Scalar type-[1/1] target (z + 2) / (z + 1)."""
    return np.array([[(z + 2.0) / (z + 1.0)]])


def expanded_numerator(support, coeffs):
    """Monomial coefficients of sum_j q_j prod_{l != j} (z - z_l), highest first."""
    acc = np.zeros(len(support), dtype=complex)
    for j in range(len(support)):
        others = np.delete(support, j)
        acc = acc + coeffs[j] * np.poly(others)
    return acc


def match_multisets(a, b, tol):
    """Greedy nearest-neighbor matching of two complex multisets."""
    a, b = list(a), list(b)
    assert len(a) == len(b)
    for x in a:
        d = [abs(x - y) for y in b]
        k = int(np.argmin(d))
        assert d[k] <= tol, f"no match for {x}: nearest {b[k]} at distance {d[k]}"
        b.pop(k)


def data_prefix(name):
    """Path prefix for a fetched benchmark system, or None if absent."""
    root = os.environ.get("GREEDYRAT_DATA", os.path.join(os.path.dirname(__file__), "..", "data"))
    prefix = os.path.join(root, name)
    if os.path.exists(f"{prefix}.A.mtx"):
        return prefix
    return None


def requires_data(name):
    return pytest.mark.skipif(
        data_prefix(name) is None,
        reason=f"benchmark data {name!r} not fetched (see scripts/fetch_slicot.py)",
    )
