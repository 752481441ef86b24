"""Seeded benchmark systems: a damped mass-spring chain and an RLC line.

Both generators draw every element value from ``numpy.random.default_rng``
with the given seed, so one seed always gives bitwise-identical matrices.
Run this file directly for a self-check of that property and of the
line's singular descriptor matrix:

    python3 ratbench/systems.py
"""
import numpy as np
import scipy.sparse as sp

CHAIN_MASSES = 1500
CHAIN_PORTS = (0, CHAIN_MASSES - 1)

LINE_SECTIONS = 25_000
LINE_PORTS = (0, 20)
# Nodes k with k % 3 == 0 carry no capacitor, so their rows of E vanish.
LINE_ZERO_ROWS = (LINE_SECTIONS + 2) // 3

SELF_CHECK_SEEDS = (0, 1)


def _ports(n, rows):
    P = np.zeros((n, len(rows)))
    P[list(rows), range(len(rows))] = 1.0
    return P


def chain_matrices(seed):
    """Lightly damped mass-spring chain in first-order form.

    ``CHAIN_MASSES`` masses; mass 0 hangs from a wall spring, the last is
    free. With positions q and velocities v, ``E = blkdiag(I, M)`` and
    ``A = [[0, I], [-K, -D]]``, so n = 2 * CHAIN_MASSES. Springs and masses
    are U(0.5, 2); the dashpot to ground at each mass is 1e-3 * U(0.5, 2).
    Forces act on, and positions are read at, the masses in
    ``CHAIN_PORTS`` (p = m = 2).
    """
    rng = np.random.default_rng(seed)
    k = rng.uniform(0.5, 2.0, CHAIN_MASSES)  # k[i] joins mass i-1 (or the wall) to mass i
    mass = rng.uniform(0.5, 2.0, CHAIN_MASSES)
    damp = 1e-3 * rng.uniform(0.5, 2.0, CHAIN_MASSES)
    diag = k + np.append(k[1:], 0.0)
    K = sp.diags([diag, -k[1:], -k[1:]], [0, 1, -1], format="csc")
    eye = sp.identity(CHAIN_MASSES, format="csc")
    E = sp.block_diag([eye, sp.diags(mass)], format="csc")
    A = sp.bmat([[None, eye], [-K, -sp.diags(damp)]], format="csc")
    P = _ports(CHAIN_MASSES, CHAIN_PORTS)
    B = np.vstack([np.zeros_like(P), P])
    C = np.vstack([P, np.zeros_like(P)]).T
    return E, A, B, C


def line_matrices(seed):
    """Modified-nodal-analysis form of a lossy RLC transmission line.

    Each of the ``LINE_SECTIONS`` sections k has node k with a shunt
    resistor (about 10 kOhm) and, unless k % 3 == 0, a shunt capacitor
    (about 1 pF), plus an inductor (about 1 nH) with a series resistor
    (about 0.05 Ohm) from node k to node k + 1; the last one ends at
    ground. Unknowns are the node voltages and the inductor currents, so
    n = 2 * LINE_SECTIONS, and E is singular (an index-1 DAE). Currents are
    injected at, and voltages read at, the nodes in ``LINE_PORTS``. Each
    element is its nominal value times U(0.9, 1.1).
    """
    rng = np.random.default_rng(seed)

    def draw(nominal):
        return nominal * rng.uniform(0.9, 1.1, LINE_SECTIONS)

    cap = draw(1e-12)
    cap[0::3] = 0.0
    ind = draw(1e-9)
    g_shunt = 1.0 / draw(1e4)
    r_series = draw(0.05)
    # Incidence of inductor k: +1 at node k, -1 at node k + 1 (if any).
    inc = sp.diags([np.ones(LINE_SECTIONS), -np.ones(LINE_SECTIONS - 1)], [0, -1], format="csc")
    E = sp.block_diag([sp.diags(cap), sp.diags(ind)], format="csc")
    A = sp.bmat(
        [[-sp.diags(g_shunt), -inc], [inc.T, -sp.diags(r_series)]], format="csc"
    )
    P = _ports(LINE_SECTIONS, LINE_PORTS)
    B = np.vstack([P, np.zeros_like(P)])
    return E, A, B, B.T.copy()


GENERATORS = {"chain": chain_matrices, "line": line_matrices}


def zero_rows(M):
    """Number of rows of a sparse matrix with no nonzero entry."""
    M = M.tocsr(copy=True)
    M.eliminate_zeros()
    return int(np.count_nonzero(np.diff(M.indptr) == 0))


def same_matrices(a, b):
    """True when two (E, A, B, C) tuples are bitwise identical."""
    for x, y in zip(a, b):
        if sp.issparse(x):
            x, y = x.tocsc(), y.tocsc()
            parts = [(x.indptr, y.indptr), (x.indices, y.indices), (x.data, y.data)]
        else:
            parts = [(x, y)]
        for u, v in parts:
            if u.shape != v.shape or u.tobytes() != v.tobytes():
                return False
    return True


def self_check():
    """Raise if a generator is not reproducible or the line's E is off."""
    for name, gen in GENERATORS.items():
        for seed in SELF_CHECK_SEEDS:
            if not same_matrices(gen(seed), gen(seed)):
                raise AssertionError(f"{name}: seed {seed} gives different matrices")
        if same_matrices(*(gen(seed) for seed in SELF_CHECK_SEEDS)):
            raise AssertionError(f"{name}: the seed does not change the matrices")
    for seed in SELF_CHECK_SEEDS:
        got = zero_rows(line_matrices(seed)[0])
        if got != LINE_ZERO_ROWS:
            raise AssertionError(f"line: E has {got} zero rows, expected {LINE_ZERO_ROWS}")


if __name__ == "__main__":
    self_check()
    print(f"ok: chain and line reproducible; line E has {LINE_ZERO_ROWS} zero rows")
