#!/usr/bin/env python3
"""Time the grid-sweep kernels on representative sizes.

The greedy driver sweeps the indicator once per iteration through the
cached Cauchy columns (CauchyColumns.indicator, one matrix-vector product);
the full sweep abs_denominator rebuilds the grid-by-support matrix and
serves arbitrary grids. The two are timed side by side at the same S.
The surrogate-value sweep serves eval_grid. Each line reports the best of
--repeats calls. Set OPENBLAS_NUM_THREADS=1 to time the cached sweep as
the benchmark runs it.

Usage: python3 benchmarks/bench_kernels.py [--grid 10000] [--repeats 20]
"""
import argparse
import time

import numpy as np

from greedyrat import BarycentricSurrogate, kernels


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
    print(f"{'kernel':<25}{'S':>4}{'p x m':>8}{'best [ms]':>12}")
    for s in (5, 20):
        support = 1j * np.sort(rng.uniform(1.0, 1e6, s))
        coeffs = rng.standard_normal(s) + 1j * rng.standard_normal(s)
        coeffs /= np.linalg.norm(coeffs)
        t = timeit(lambda: kernels.abs_denominator(grid, support, coeffs), args.repeats)
        print(f"{'abs_denominator':<25}{s:>4}{'-':>8}{1e3 * t:>12.3f}")
    for s in (50, 120):
        # S support points on the grid, each with its cached column.
        support = grid[np.sort(rng.choice(args.grid, s, replace=False))]
        coeffs = rng.standard_normal(s) + 1j * rng.standard_normal(s)
        sur = BarycentricSurrogate(support, np.zeros((s, 1, 1)), coeffs / np.linalg.norm(coeffs))
        cache = kernels.CauchyColumns(grid)
        for z in support:
            cache.add(z)
        t_full = timeit(lambda: kernels.abs_denominator(grid, support, sur.coeffs), args.repeats)
        t_cached = timeit(lambda: cache.indicator(sur), args.repeats)
        print(f"{'abs_denominator':<25}{s:>4}{'-':>8}{1e3 * t_full:>12.3f}")
        print(f"{'CauchyColumns.indicator':<25}{s:>4}{'-':>8}{1e3 * t_cached:>12.3f}")
    for s, p, m in ((10, 2, 2), (30, 4, 4)):
        support = 1j * np.sort(rng.uniform(1.0, 1e6, s))
        coeffs = rng.standard_normal(s) + 1j * rng.standard_normal(s)
        coeffs /= np.linalg.norm(coeffs)
        values = rng.standard_normal((s, p, m)) + 1j * rng.standard_normal((s, p, m))
        t = timeit(lambda: kernels.eval_sweep(grid, support, coeffs, values), args.repeats)
        print(f"{'eval_sweep':<25}{s:>4}{f'{p} x {m}':>8}{1e3 * t:>12.3f}")


if __name__ == "__main__":
    main()
