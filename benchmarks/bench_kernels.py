#!/usr/bin/env python3
"""Time the grid-sweep kernels on representative sizes.

The denominator/indicator sweep over the test grid is the hot loop of the
greedy driver (one full sweep per iteration); the surrogate-value sweep
serves eval_grid. Each line reports the best of --repeats calls.

Usage: python3 benchmarks/bench_kernels.py [--grid 10000] [--repeats 20]
"""
import argparse
import time

import numpy as np

from greedyrat import kernels


def timeit(fn, repeats):
    fn()  # warm-up
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", type=int, default=10_000)
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    grid = 1j * np.geomspace(1.0, 1e6, args.grid)
    print(f"grid size {args.grid}")
    print(f"{'kernel':<22}{'S':>4}{'p x m':>8}{'best [ms]':>12}")
    for s in (5, 20, 50):
        support = 1j * np.sort(rng.uniform(1.0, 1e6, s))
        coeffs = rng.standard_normal(s) + 1j * rng.standard_normal(s)
        coeffs /= np.linalg.norm(coeffs)
        t = timeit(lambda: kernels.abs_denominator(grid, support, coeffs), args.repeats)
        print(f"{'abs_denominator':<22}{s:>4}{'-':>8}{1e3 * t:>12.3f}")
    for s, p, m in ((10, 2, 2), (30, 4, 4)):
        support = 1j * np.sort(rng.uniform(1.0, 1e6, s))
        coeffs = rng.standard_normal(s) + 1j * rng.standard_normal(s)
        coeffs /= np.linalg.norm(coeffs)
        values = rng.standard_normal((s, p, m)) + 1j * rng.standard_normal((s, p, m))
        t = timeit(lambda: kernels.eval_sweep(grid, support, coeffs, values), args.repeats)
        print(f"{'eval_sweep':<22}{s:>4}{f'{p} x {m}':>8}{1e3 * t:>12.3f}")


if __name__ == "__main__":
    main()
