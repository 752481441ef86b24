"""Seeded descriptor systems for tests and benchmarks.

Every generator draws its values from ``numpy.random.default_rng`` with a
fixed seed and uses no BLAS, so a call gives the same bits on every host:

  rlc_line           sparse RLC line with a singular E (tridiagonal path)
  spring_chain       lightly damped mass-spring chain (banded path)
  long_range         a system plus weak random couplings (SuperLU path)
  densified          a system with E and A stored as dense arrays
  mass_0_port        the chain read and driven at mass 0 alone
  triangular_system  E = I and upper-triangular A: exact poles at 1j*k
  make_synthetic     E = I and A = diag(poles), seeded random B and C

``PATH_CASES`` names one system per pencil path with the frequency range
it is probed on. At ``rlc_line(sections=25_000, ports=(0, 20))`` and
``spring_chain(masses=1500)`` the line and the chain are, bit for bit,
the end-to-end benchmark's (``ratbench/systems.py``).

``benchmarks/trace_digest.py`` and ``benchmarks/hidden_poles.py`` load
this file by path beside an older checkout's package, so it takes
nothing from the package but ``system_model.DescriptorSystem``.
"""
import numpy as np
import scipy.sparse as sp

from .system_model import DescriptorSystem


def _ports(n, rows):
    P = np.zeros((n, len(rows)))
    P[list(rows), range(len(rows))] = 1.0
    return P


def rlc_line(sections=200, seed=0, ports=None):
    """Sparse modified-nodal-analysis RLC line with a singular E.

    Section k has node k with a shunt resistor (about 10 kOhm) and, unless
    k % 3 == 0, a shunt capacitor (about 1 pF), and an inductor (about
    1 nH) with a series resistor (about 0.05 Ohm) from node k to node
    k + 1, the last one to ground. Unknowns are the node voltages and the
    inductor currents, so n = 2 * sections, and the rows of E at nodes
    without a capacitor vanish. Currents are injected at, and voltages
    read at, the nodes in ``ports``, by default 0 and sections // 10.
    Element values are nominal times U(0.9, 1.1).
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
    P = _ports(sections, (0, sections // 10) if ports is None else ports)
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
    """sys with E and A stored as dense arrays: a band path stays, a wider pattern goes to getrf."""
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


def mass_0_port(sys):
    """sys with one port, B = C.T, at the position of mass 0 of the chain.

    RCM puts that state last, so the banded transfer window is 3 rows.
    """
    C = np.zeros((1, sys.n))
    C[0, 0] = 1.0
    return DescriptorSystem(sys.E, sys.A, C.T, C)


def triangular_system(n, wide, kind):
    """E = I and upper-triangular A with diagonal 1j*(1..n): exact poles at 1j*k.

    A is bidiagonal, plus a second superdiagonal for the banded kind (the
    bidiagonal alone is tridiagonal), and entries at random pairs above the
    diagonal if wide. The dense kind stores E and A as dense arrays.
    """
    rng = np.random.default_rng(3)
    A = sp.diags(1j * np.arange(1.0, n + 1), format="csc")
    i = np.arange(n - 1)
    A = A + sp.csc_matrix((rng.uniform(0.5, 2.0, n - 1), (i, i + 1)), shape=(n, n))
    if kind == "banded":
        i = np.arange(n - 2)
        A = A + sp.csc_matrix((rng.uniform(0.5, 2.0, n - 2), (i, i + 2)), shape=(n, n))
    if wide:
        i, j = random_pairs(n, n // 2, rng)
        A = A + sp.csc_matrix((rng.uniform(0.5, 2.0, i.size), (i, j)), shape=(n, n))
    B, C = np.ones((n, 1)), np.ones((1, n))
    if kind == "dense":
        return DescriptorSystem(np.eye(n), A.toarray(), B, C)
    return DescriptorSystem(sp.identity(n, format="csc"), A, B, C)


def make_synthetic(poles, residue_seed, m=1, p=1):
    """Diagonal system with prescribed poles and seeded random B, C.

    E = I, A = diag(poles); B and C get unit-scale complex Gaussian
    entries from a seeded generator, so the same seed reproduces the
    system bitwise. The transfer function is rational with poles exactly
    at the given (distinct) locations.
    """
    poles = np.asarray(list(poles), dtype=np.complex128)
    if poles.size == 0:
        raise ValueError("at least one pole is required")
    if len(set(poles.tolist())) != poles.size:
        raise ValueError("poles must be distinct")
    rng = np.random.default_rng(residue_seed)
    n = poles.size
    B = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2)
    C = (rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))) / np.sqrt(2)
    return DescriptorSystem(np.eye(n), np.diag(poles), B, C)


# (system, f_min, f_max) with frequencies z = i*f spanning the response
LINE = (rlc_line, 1e8, 1e10)
CHAIN = (spring_chain, 1e-2, 1.0)


# case id: (system, frequency range, the path it takes); a "-dense" id
# stores E and A as dense arrays, which changes only a wide pattern's path
PATH_CASES = {
    "line-tridiagonal": (rlc_line, LINE, "tridiagonal"),
    "chain-banded": (spring_chain, CHAIN, "banded"),
    "chain-banded-window": (lambda: mass_0_port(spring_chain()), CHAIN, "banded"),
    "line-dense": (lambda: densified(rlc_line()), LINE, "tridiagonal"),
    "chain-dense": (lambda: densified(spring_chain()), CHAIN, "banded"),
    "line-sparse": (lambda: long_range(rlc_line()), LINE, "sparse"),
    "chain-sparse": (lambda: long_range(spring_chain()), CHAIN, "sparse"),
    "line-wide-dense": (lambda: densified(long_range(rlc_line())), LINE, "dense"),
    "chain-wide-dense": (lambda: densified(long_range(spring_chain())), CHAIN, "dense"),
}
