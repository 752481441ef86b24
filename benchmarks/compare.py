#!/usr/bin/env python3
"""Paired runs of two source trees' benchmark, alternating which side goes first.

    python3 benchmarks/compare.py --a ../parent --b . --workload chain_lookahead --pairs 10
    python3 benchmarks/compare.py --a . --b . --workload line_batch --pairs 1 --seconds 1

--a and --b are the roots of two checkouts, a the reference (the parent
commit, say) and b the change. Each run is a child process of one tree's
own ``ratbench/run.py --workload W --seed K --seconds S``, which builds
from that tree's src/ alone. In pair i the a side runs first when i is
odd and second when it is even, so a drift of the machine's load over a
pair falls on each side alike. Without --workload, every workload that a's
BENCHMARK.json declares runs its pairs, one workload after the other.

Two trees whose ratbench/ files differ are refused before any run: the
comparison is of the program under one benchmark. Python caches and the
work directories of an interrupted run are not compared.

Every run prints one line with its end-to-end metrics (the "metrics" of
run.py's closing JSON line). Then, per workload and metric, it prints the
median of each side, the quartiles of a's runs (inclusive method), the
median over pairs of the ratio b/a and in how many pairs b read lower
than a. The last line is all of it as one JSON object.

The exit status is 1 when any run fails (a non-zero exit or run.py's
"correct" false) or when oracle_calls or samples take other values on
one side than on the other, and 0 otherwise. No metric's size decides
it: whether a difference matters is for the reader of the table.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

COUNTS = ("oracle_calls", "samples")  # must read the same on both sides


def bench_files(root):
    """Relative path -> bytes of every file under root/ratbench, less caches and work directories."""
    base = os.path.join(root, "ratbench")
    files = {}
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__" and not d.startswith(".work-"))
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                files[os.path.relpath(path, base)] = f.read()
    return files


def declared_workloads(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def run_once(root, workload, seed, seconds):
    """One run of root's ratbench/run.py: (ok, metrics name -> value, env record)."""
    argv = [sys.executable, os.path.join(root, "ratbench", "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    try:
        proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=300 + 4 * seconds)
    except subprocess.TimeoutExpired as exc:
        print(f"  {root}: timed out after {exc.timeout:.0f} s", file=sys.stderr)
        return False, {}, None
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    ok = proc.returncode == 0 and result.get("correct") is True
    if not ok:
        print(f"  {root}: run.py exited {proc.returncode}; last lines of its stderr:", file=sys.stderr)
        print("\n".join(proc.stderr.strip().splitlines()[-20:]), file=sys.stderr)
    metrics = {name: m["value"] for name, m in result.get("metrics", {}).items()}
    return ok, metrics, env


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs):
    """Per metric: both medians, a's quartiles, the median ratio b/a and the pairs where b read lower."""
    table = {}
    for name in pairs[0]["a"]:
        a = [p["a"][name] for p in pairs]
        b = [p["b"][name] for p in pairs]
        table[name] = {
            "median_a": statistics.median(a),
            "median_b": statistics.median(b),
            "quartiles_a": quartiles(a),
            "median_ratio_b_a": statistics.median(y / x for x, y in zip(a, b)),
            "b_lower": sum(y < x for x, y in zip(a, b)),
            "pairs": len(pairs),
        }
    return table


def print_table(workload, table):
    print(f"{workload}: median a, median b, a's [q1, q3], median of b/a, pairs where b read lower")
    for name, row in table.items():
        q1, q3 = row["quartiles_a"]
        print(f"  {name:<14}{row['median_a']:>12.6g}{row['median_b']:>12.6g}   [{q1:.6g}, {q3:.6g}]"
              f"   {row['median_ratio_b_a']:8.4f}   {row['b_lower']} of {row['pairs']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--a", required=True, help="root of the reference checkout")
    parser.add_argument("--b", required=True, help="root of the checkout compared with it")
    parser.add_argument("--workload", help="one workload (default: every workload a's BENCHMARK.json declares)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    roots = {"a": os.path.abspath(args.a), "b": os.path.abspath(args.b)}
    if bench_files(roots["a"]) != bench_files(roots["b"]):
        sys.exit(f"refused: the ratbench/ files of {roots['a']} and {roots['b']} differ")
    workloads = [args.workload] if args.workload else declared_workloads(roots["a"])

    failed, report, env = False, {}, None
    for workload in workloads:
        pairs = []
        for i in range(1, args.pairs + 1):
            pair, order = {}, ("a", "b") if i % 2 else ("b", "a")
            for side in order:
                ok, metrics, run_env = run_once(roots[side], workload, args.seed, args.seconds)
                env = env or run_env
                failed |= not ok
                pair[side] = metrics
                shown = " ".join(f"{k} {v:.6g}" for k, v in metrics.items()) or "no metrics"
                print(f"{workload} pair {i} {side}{' (first)' if side == order[0] else ''}: "
                      f"{'ok' if ok else 'FAILED'} {shown}", flush=True)
            pairs.append(pair)
        complete = [p for p in pairs if p["a"] and p["b"]]
        table = summarize(complete) if complete else {}
        if table:
            print_table(workload, table)
        moved = [name for name in COUNTS
                 if {p["a"][name] for p in complete} != {p["b"][name] for p in complete}]
        if moved:
            print(f"{workload}: {' and '.join(moved)} differ between the sides", file=sys.stderr)
            failed = True
        report[workload] = {"pairs": pairs, "summary": table}
    print(json.dumps({"a": roots["a"], "b": roots["b"], "seed": args.seed, "seconds": args.seconds,
                      "env": env, "failed": failed, "workloads": report}))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
