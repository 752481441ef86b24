import os
import sys

import numpy as np
import pytest
import scipy.sparse as sp

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from greedyrat import BarycentricSurrogate, DescriptorSystem  # noqa: E402


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


def _ports(n, rows):
    P = np.zeros((n, len(rows)))
    P[list(rows), range(len(rows))] = 1.0
    return P


def rlc_line(sections=200, seed=0):
    """Sparse modified-nodal-analysis RLC line with a singular E.

    Section k has node k with a shunt resistor (about 10 kOhm) and, unless
    k % 3 == 0, a shunt capacitor (about 1 pF), and an inductor (about
    1 nH) with a series resistor (about 0.05 Ohm) from node k to node
    k + 1, the last one to ground. Unknowns are the node voltages and the
    inductor currents, so n = 2 * sections, and the rows of E at nodes
    without a capacitor vanish. Ports (p = m = 2) are nodes 0 and
    sections // 10. Element values are nominal times U(0.9, 1.1).
    """
    rng = np.random.default_rng(seed)

    def draw(nominal):
        return nominal * rng.uniform(0.9, 1.1, sections)

    cap = draw(1e-12)
    cap[0::3] = 0.0
    ind, g_shunt, r_series = draw(1e-9), 1.0 / draw(1e4), draw(0.05)
    inc = sp.diags([np.ones(sections), -np.ones(sections - 1)], [0, -1], format="csc")
    E = sp.block_diag([sp.diags(cap), sp.diags(ind)], format="csc")
    A = sp.bmat([[-sp.diags(g_shunt), -inc], [inc.T, -sp.diags(r_series)]], format="csc")
    P = _ports(sections, (0, sections // 10))
    B = np.vstack([P, np.zeros_like(P)])
    return DescriptorSystem(E, A, B, B.T.copy())


def spring_chain(masses=100, seed=0):
    """Lightly damped sparse mass-spring chain in first-order form.

    Mass 0 hangs from a wall spring and the last one is free. With
    positions q and velocities v, E = blkdiag(I, M) and
    A = [[0, I], [-K, -D]], so n = 2 * masses. Springs and masses are
    U(0.5, 2); the dashpot to ground at each mass is 1e-3 * U(0.5, 2).
    Forces act on, and positions are read at, the first and last masses.
    """
    rng = np.random.default_rng(seed)
    k = rng.uniform(0.5, 2.0, masses)
    mass = rng.uniform(0.5, 2.0, masses)
    damp = 1e-3 * rng.uniform(0.5, 2.0, masses)
    K = sp.diags([k + np.append(k[1:], 0.0), -k[1:], -k[1:]], [0, 1, -1], format="csc")
    eye = sp.identity(masses, format="csc")
    E = sp.block_diag([eye, sp.diags(mass)], format="csc")
    A = sp.bmat([[None, eye], [-K, -sp.diags(damp)]], format="csc")
    P = _ports(masses, (0, masses - 1))
    B, C = np.vstack([np.zeros_like(P), P]), np.vstack([P, np.zeros_like(P)]).T
    return DescriptorSystem(E, A, B, C)


def densified(sys):
    """sys with E and A stored as dense arrays; the pencil path stays the structure's."""
    return DescriptorSystem(sys.E.toarray(), sys.A.toarray(), sys.B, sys.C)


def random_pairs(n, count, rng):
    """count distinct (i, j) with i < j, drawn uniformly."""
    pairs = set()
    while len(pairs) < count:
        i, j = sorted(rng.choice(n, 2, replace=False))
        pairs.add((i, j))
    return tuple(np.array(sorted(pairs)).T)


def long_range(sys, seed=0):
    """sys plus weak symmetric couplings between n/10 random pairs of states.

    The couplings widen the band beyond any ordering's reach, so the
    pencil goes to SuperLU.
    """
    rng = np.random.default_rng(seed)
    i, j = random_pairs(sys.n, sys.n // 10, rng)
    coupling = sp.csc_matrix((1e-3 * rng.uniform(0.5, 2.0, i.size), (i, j)), shape=(sys.n, sys.n))
    return DescriptorSystem(sys.E, sys.A + coupling + coupling.T, sys.B, sys.C)
