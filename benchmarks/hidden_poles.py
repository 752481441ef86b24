#!/usr/bin/env python3
"""Count the inexact transfer values that solve_pencil returns at poles its ports do not reach.

greedyrat.testsystems' triangular_system(200, ...) has E = I and an
upper-triangular A with diagonal 1j*(1..200), so its pencil is exactly
singular at z = 1j*k. With one port at state s, B = C.T = e_s, the
transfer function reduces to 1/(z - a_ss): the other 199 exact poles are
out of the ports' reach, and there a reply must either raise
ResonanceError or be that value. For each path this script builds all
200 single-state ports of the path's triangular system, evaluates H at
each port's 199 hidden poles (39800 replies), and prints one line:

  inexact  replies off from 1/(z - a_ss) by more than 1e-12 relative
  raises   replies that raised ResonanceError
  worst    the largest relative error of a reply that did not raise
  sha256   over the sorted (state, k) pairs of the inexact replies

The state s counts in the system's order, not the pencil's RCM order.
Every path must report inexact 0: after printing every line, the script
exits 1 when any probed path has an inexact reply. The raise counts and
the worst error are for reading, not a gate; to see how a change moves
them, run it on two source trees and compare the lines,

  python3 benchmarks/hidden_poles.py > new.txt
  python3 benchmarks/hidden_poles.py --src ../old/src > old.txt

An older checkout need not have greedyrat.testsystems: source_tree.py
beside this script imports the package from --src, or exits naming both
paths when greedyrat comes from elsewhere, and loads this tree's
testsystems.py as a module of that package.

It pins one BLAS thread before numpy loads, as a reply's bits can depend
on the thread count. On the sparse path OpenBLAS, called by SuperLU,
writes two "illegal value" lines to stderr at each exactly singular
pencil; stdout holds only the lines above. On a 2-core x86 machine the
tridiagonal, banded and sparse paths take about 20 s together and all
four about 70 s.

Usage: python3 benchmarks/hidden_poles.py [--src PATH] [--paths tridiagonal,banded,sparse,dense]
"""
import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from source_tree import SRC, import_greedyrat, testsystems  # noqa: E402

KINDS = ["tridiagonal", "banded", "sparse", "dense"]
N = 200


def probe(kind):
    """(inexact (state, k) pairs, raises, worst relative error) on one path."""
    from greedyrat import DescriptorSystem, ResonanceError

    full = testsystems().triangular_system(N, kind in ("sparse", "dense"), kind)
    inexact, raises, worst = [], 0, 0.0
    for s in range(N):
        port = np.zeros((N, 1))
        port[s] = 1.0
        system = DescriptorSystem(full.E, full.A, port, port.T)
        assert system.pencil_path == kind, (kind, s, system.pencil_path)
        a_ss = 1j * (s + 1)
        for k in range(1, N + 1):
            z = 1j * k
            if z == a_ss:
                continue
            try:
                h = system.eval_transfer(z)[0, 0]
            except ResonanceError:
                raises += 1
                continue
            exact = 1 / (z - a_ss)
            error = abs(h - exact) / abs(exact)
            worst = max(worst, error)
            if not error <= 1e-12:
                inexact.append((s, k))
    return sorted(inexact), raises, worst


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", default=SRC, help="directory that holds greedyrat")
    parser.add_argument("--paths", default=",".join(KINDS), help="comma-separated solve paths to probe")
    args = parser.parse_args()
    kinds = args.paths.split(",")
    unknown = sorted(set(kinds) - set(KINDS))
    if unknown:
        parser.error(f"unknown path(s) {', '.join(unknown)}; choose from {', '.join(KINDS)}")
    import_greedyrat(args.src)
    t0 = time.perf_counter()
    any_inexact = False
    for kind in kinds:
        inexact, raises, worst = probe(kind)
        any_inexact = any_inexact or bool(inexact)
        pairs = hashlib.sha256(repr(inexact).encode()).hexdigest()
        print(f"{kind:<12}inexact {len(inexact):>4}  raises {raises:>5}  worst {worst:.3g}  sha256 {pairs}")
    print(f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return 1 if any_inexact else 0


if __name__ == "__main__":
    sys.exit(main())
