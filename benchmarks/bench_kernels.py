#!/usr/bin/env python3
"""Time the grid-sweep kernels on representative sizes.

The greedy driver sweeps the indicator once per iteration through the
cached Cauchy columns (CauchyColumns.indicator, one matrix-vector product);
the full sweep abs_denominator rebuilds the grid-by-support matrix and
serves arbitrary grids. The two are timed side by side at the same S.
The surrogate-value sweep serves eval_grid. The surrogate's scalar
methods are one-point calls of the same sweeps, so eval, eval_denominator
and eval_grid([z]) are timed at one point, in microseconds, on 2 x 2
output blocks and on 3000 x 2 state blocks (the size verify evaluates).
The fit's kernel, fitters._smallest_right_singular_vector, is timed on
a complex Loewner matrix of the benchmark chain's last shape (228 x 58:
57 test and 58 support samples of 2 x 2 blocks, past the 17/9 aspect
where it takes the SVD of R) and of the SISO shape at the same sample
count (57 x 58, wide). The whole Loewner fit at that chain's final shape
(115 samples of 2 x 2 blocks) is timed twice: as the greedy driver calls
it, on SampleArrays in the order the samples joined (here a random one),
and on a shuffled list of FrequencySample, which fit stacks first; fit
sorts both.
The oracle kernel is timed in ms per call on each of its four paths on
the small descriptor systems of greedyrat.testsystems, which the tests
use too: an RLC line of 200 sections with singular E (tridiagonal) and a
mass-spring chain of 100 masses (banded), each also densified (which
keeps the structure's path), with random long-range couplings (SuperLU),
and with both (dense: getrf). Each system has two columns:
DescriptorSystem.solve_pencil(z, B), which solves all n rows, and
eval_transfer(z), which on the band paths solves only the trailing window
of rows that B and C touch (the line's last 42 of 400; the chain's ports
at both ends need all n). Beside them stand the MiB the system holds
after its build and the most MiB its build held at once (tracemalloc).
The test systems are real, so each is also built from complex128 copies
of its operands, the twin that returns the same bits from twice the
bytes. The same four columns, solve_pencil(z, B), eval_transfer, held and
peak MiB, are then taken at the benchmark's own sizes, from the same
generators: rlc_line(sections=25_000, ports=(0, 20)) (n = 50000,
tridiagonal) and spring_chain(masses=1500) (n = 3000, banded) at seed 0,
bit for bit ratbench/systems.py's line and chain, each at the geometric
middle of its workload's band (f = 1e8 and 1e-2). As for the test
systems, held and peak are taken on a second build from the generated
system's operands, so they count DescriptorSystem's build alone: the
generator's own sparse assembly would double the line's peak. Last,
parallel.map_points(chain.eval_transfer, points) is timed over 1000 points
of the test chain's band [1e-2, 3]: held in-process (one usable CPU) and
as map_points chooses (wherever forking is safe, a chunk per usable CPU:
this process maps the first and a forked child each other), with the
number of children forked, one on 2 usable CPUs.
Each timing reports the best of --repeats calls. Set OPENBLAS_NUM_THREADS=1
to time the kernels as the benchmark runs them; with a BLAS thread pool
running, map_points forks no child.

Usage: python3 benchmarks/bench_kernels.py [--grid 10000] [--repeats 20]
"""
import argparse
import os
import time
import tracemalloc
from unittest import mock

import numpy as np

from greedyrat import BarycentricSurrogate, DescriptorSystem, FrequencySample, kernels, parallel
from greedyrat.fitters import SampleArrays, _smallest_right_singular_vector, fit
from greedyrat.testsystems import densified, long_range, rlc_line, spring_chain


def timeit(fn, repeats):
    fn()  # warm-up
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def build_held(operands):
    """The system built from operands, the MiB it holds and the MiB its build peaked at (tracemalloc)."""
    tracemalloc.start()
    try:
        system = DescriptorSystem(*operands)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return system, held / 2**20, peak / 2**20


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

    print(f"\n{'one-point call':<25}{'S':>4}{'p x m':>12}{'best [us]':>12}")
    s = 57
    support = grid[np.sort(rng.choice(args.grid, s, replace=False))]
    coeffs = rng.standard_normal(s) + 1j * rng.standard_normal(s)
    coeffs /= np.linalg.norm(coeffs)
    z = complex(grid[args.grid // 2]) * (1 + 1e-9)  # off the support
    for p, m in ((2, 2), (3000, 2)):
        values = rng.standard_normal((s, p, m)) + 1j * rng.standard_normal((s, p, m))
        sur = BarycentricSurrogate(support, values, coeffs)
        for label, fn in (
            ("eval", lambda: sur.eval(z)),
            ("eval_denominator", lambda: sur.eval_denominator(z)),
            ("eval_grid([z])", lambda: sur.eval_grid([z])),
        ):
            t = timeit(fn, 50 * args.repeats)
            print(f"{label:<25}{s:>4}{f'{p} x {m}':>12}{1e6 * t:>12.2f}")

    print(f"\n{'_smallest_right_singular_vector':<33}{'rows x cols':>12}{'best [ms]':>12}")
    for label, rows, cols in (("chain Loewner, 2 x 2", 228, 58), ("SISO Loewner", 57, 58)):
        M = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        t = timeit(lambda: _smallest_right_singular_vector(M, cols), args.repeats)
        print(f"{label:<33}{f'{rows} x {cols}':>12}{1e3 * t:>12.3f}")

    head = 'fit(samples, "loewner")'
    print(f"\n{head:<33}{'S':>12}{'best [ms]':>12}")
    s = 115
    z = grid[rng.choice(args.grid, s, replace=False)]
    values = rng.standard_normal((s, 2, 2)) + 1j * rng.standard_normal((s, 2, 2))
    listed = [FrequencySample(z[j], values[j]) for j in rng.permutation(s)]
    for label, samples in (("SampleArrays, take order", SampleArrays(z, values)), ("list", listed)):
        t = timeit(lambda: fit(samples, "loewner"), args.repeats)
        print(f"{label:<33}{s:>12}{1e3 * t:>12.3f}")

    head = f"{'pencil':<34}{'path':>12}{'n':>6}{'solve_pencil':>14}{'eval_transfer':>15}{'held':>9}{'peak':>9}"
    print(f"\n{head}\n{'':<52}{'[ms]':>14}{'[ms]':>15}{'[MiB]':>9}{'[MiB]':>9}")
    for name, make, z in (("line", rlc_line, 2j * np.pi * 1e9), ("chain", spring_chain, 0.3j)):
        for label, base in (
            (name, make()),
            (f"{name}, long-range", long_range(make())),
            (f"{name}, densified", densified(make())),
            (f"{name}, long, densified", densified(long_range(make()))),
        ):
            operands = (base.E, base.A, base.B, base.C)
            for twin, ops in (("", operands), (", complex", [M.astype(np.complex128) for M in operands])):
                system, held, peak = build_held(ops)
                t_solve = timeit(lambda: system.solve_pencil(z, system.B), args.repeats)
                t_transfer = timeit(lambda: system.eval_transfer(z), args.repeats)
                print(
                    f"{label + twin:<34}{system.pencil_path:>12}{system.n:>6}"
                    f"{1e3 * t_solve:>14.3f}{1e3 * t_transfer:>15.3f}{held:>9.3f}{peak:>9.3f}"
                )

    head = f"{'benchmark pencil, seed 0':<34}{'path':>12}{'n':>6}{'solve_pencil':>14}{'eval_transfer':>15}{'held':>9}{'peak':>9}"
    print(f"\n{head}\n{'':<52}{'[ms]':>14}{'[ms]':>15}{'[MiB]':>9}{'[MiB]':>9}")
    for name, bench, z in (
        ("line", rlc_line(sections=25_000, seed=0, ports=(0, 20)), 1e8j),
        ("chain", spring_chain(masses=1500, seed=0), 1e-2j),
    ):
        # rebuilt under tracemalloc, as the test systems above are
        system, held, peak = build_held((bench.E, bench.A, bench.B, bench.C))
        t_solve = timeit(lambda: system.solve_pencil(z, system.B), args.repeats)
        t_transfer = timeit(lambda: system.eval_transfer(z), args.repeats)
        print(
            f"{name:<34}{system.pencil_path:>12}{system.n:>6}"
            f"{1e3 * t_solve:>14.3f}{1e3 * t_transfer:>15.3f}{held:>9.3f}{peak:>9.3f}"
        )

    chain = spring_chain()
    points = 1j * np.geomspace(1e-2, 3.0, 1000)
    print(f"\n{'map_points(chain.eval_transfer)':<33}{'points':>8}{'forked':>9}{'best [ms]':>12}")
    for label, patches in (
        ("in-process", {"usable_cpus": lambda: 1}),
        ("as chosen", {"usable_cpus": parallel.usable_cpus}),
    ):
        with mock.patch.multiple(parallel, **patches):
            pids = parallel.map_points(lambda z: (os.getpid(), chain.eval_transfer(z))[0], points)
            workers = len(set(pids) - {os.getpid()})
            t = timeit(lambda: parallel.map_points(chain.eval_transfer, points), args.repeats)
        print(f"{label:<33}{points.size:>8}{workers:>9}{1e3 * t:>12.3f}")
    if not parallel.fork_is_safe():
        print("(this process runs threads, so nothing forks: set OPENBLAS_NUM_THREADS=1)")


if __name__ == "__main__":
    main()
