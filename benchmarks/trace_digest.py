#!/usr/bin/env python3
"""One digest line per greedy run, per pencil solve path and per CLI
command and artifact, to show that a change leaves every run, solve and
artifact bit for bit as it was.

The configurations are the six termination rules x {loewner, mri} x three
systems x tol {1e-3, 1e-6}, grid 2000, max_samples 200: 72 runs. The
systems are the 8-pole 2x2 make_synthetic system (poles i*{2, 5, 11, 19,
37, 53, 71, 90}, residue seed 1) on f in [1, 100], rlc_line() on [1e7,
1e10] and spring_chain() on [1e-2, 3]. Every system here comes from
greedyrat.testsystems, which the tests use too. The rules take density
min_gap 0.05, lookahead_memory 3, batch 5 and randomized 20.

Each line gives the samples, the oracle calls and the stop, then a sha256
over every surrogate's support, values and q bytes, every IterationRecord
field except elapsed, the sampled sequence, the resonances,
n_random_solved and the solves in their order (frequency and iteration).
Each run must also keep the ledger identity

  oracle_calls == samples + sum(test_calls) + n_random_solved

and each record's test_calls must equal the solves first made in its
iteration at frequencies that never joined training, recounted from
run.store.solves, so the driver's running count is checked against an
independent one.

The script reads only what run_greedy's result has offered since the
sample store was introduced, so it runs unchanged against an older
checkout's package, also one without greedyrat.testsystems: it loads
this tree's src/greedyrat/testsystems.py from its file, as a module of
the package under --src, whose DescriptorSystem builds every system.
When greedyrat imports from anywhere but --src (an installed copy, say,
or a PYTHONPATH entry, where --src holds no package), the script exits
with an error naming both paths before any work.
Diff its output for two source trees,

  python3 benchmarks/trace_digest.py > new.txt
  python3 benchmarks/trace_digest.py --src ../old/src > old.txt

It pins one BLAS thread before numpy loads, because a run's bits can
depend on the thread count. The digests also depend on the BLAS build,
so none is stored here to compare against.

The pencils section prints one line per descriptor system: each case of
testsystems.PATH_CASES (the four solve paths on the RLC line and the
spring chain), the benchmark's line and chain at seed 0
(rlc_line(sections=25_000, ports=(0, 20)) and spring_chain(masses=1500),
bit for bit ratbench/systems.py's, on their workloads' ranges [1e7, 1e9]
and [1e-3, 0.1]), and the complex twin of each, built from complex128
copies of its operands. A line gives the sha256 over the bytes of
eval_transfer(z) and over those of eval_state_transfer(z) at 12
geometrically spaced z = i*f on the case's range, and the indices of the
z at which either raises ResonanceError.

The CLI section then runs `greedyrat run`, `validate` and `verify`, each
in a child process on the package under --src, on three configurations:
the cli_roundtrip workload's (the benchmark's chain at seed 0 on f in
[1e-3, 0.03], grid 1000, randomized with n_random 100), rlc_line() with
lookahead and spring_chain() with batch, n_batch 5, both on the ranges
above with grid 2000; tol 1e-3 and delta 1e-8 throughout. The systems
go to Matrix Market files first. It prints one line per command
(exit code, sha256 of its stdout and of its stderr) and one per artifact
(sha256 of everything below its `# generated` line).

Usage: python3 benchmarks/trace_digest.py [--src PATH]
"""
import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

RULES = [
    ("max_count", {}),
    ("density", {"min_gap": 0.05}),
    ("lookahead", {}),
    ("lookahead_memory", {"n_memory": 3}),
    ("batch", {"n_batch": 5}),
    ("randomized", {"n_random": 20}),
]


@functools.cache
def testsystems():
    """This tree's greedyrat/testsystems.py, loaded from its file as a module of
    the greedyrat package already imported from --src, whose DescriptorSystem it
    builds: an older checkout has no testsystems module."""
    path = os.path.join(ROOT, "src", "greedyrat", "testsystems.py")
    spec = importlib.util.spec_from_file_location("greedyrat.testsystems", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def systems():
    """(name, system, f_min, f_max) for the three systems."""
    ts = testsystems()
    poles = [1j * f for f in (2, 5, 11, 19, 37, 53, 71, 90)]
    return [
        ("8-pole", ts.make_synthetic(poles, 1, m=2, p=2), 1.0, 100.0),
        ("line", ts.rlc_line(), 1e7, 1e10),
        ("chain", ts.spring_chain(), 1e-2, 3.0),
    ]


def cli_systems():
    """(name, system, config lines) for the CLI section's three configurations."""
    ts = testsystems()
    return [
        (
            "roundtrip",
            ts.spring_chain(masses=1500, seed=0),
            "f_min = 1e-3\nf_max = 0.03\ngrid_size = 1000\ntermination = randomized\nn_random = 100\n",
        ),
        ("line", ts.rlc_line(), "f_min = 1e7\nf_max = 1e10\ngrid_size = 2000\ntermination = lookahead\n"),
        ("chain", ts.spring_chain(), "f_min = 1e-2\nf_max = 3\ngrid_size = 2000\ntermination = batch\nn_batch = 5\n"),
    ]


def sha(data):
    return hashlib.sha256(data).hexdigest()


def pencil_systems():
    """(name, system, f_min, f_max) for the pencils section, twins included."""
    from greedyrat import DescriptorSystem

    ts = testsystems()
    cases = [(name, make(), f_min, f_max) for name, (make, (_, f_min, f_max), _) in ts.PATH_CASES.items()]
    cases += [
        ("bench line", ts.rlc_line(sections=25_000, seed=0, ports=(0, 20)), 1e7, 1e9),
        ("bench chain", ts.spring_chain(masses=1500, seed=0), 1e-3, 0.1),
    ]
    for name, system, f_min, f_max in cases:
        yield name, system, f_min, f_max
        twin = DescriptorSystem(*(M.astype(np.complex128) for M in (system.E, system.A, system.B, system.C)))
        yield f"{name}, complex", twin, f_min, f_max


def pencil_lines():
    """One line per pencil system: the bytes of H(z) and G(z) at 12 z, and the resonant z."""
    from greedyrat import ResonanceError

    for name, system, f_min, f_max in pencil_systems():
        transfer, state, resonant = hashlib.sha256(), hashlib.sha256(), []
        for k, z in enumerate(1j * np.geomspace(f_min, f_max, 12)):
            try:
                H, G = system.eval_transfer(z), system.eval_state_transfer(z)
            except ResonanceError:
                resonant.append(k)
                continue
            transfer.update(H.tobytes())
            state.update(G.tobytes())
        yield f"{name:<30}transfer {transfer.hexdigest()}  state {state.hexdigest()}  resonant {resonant}"


def cli_lines(src):
    """One line per CLI command and per artifact it wrote, run on the package in src."""
    env = dict(os.environ, PYTHONPATH=src)
    with tempfile.TemporaryDirectory() as workdir:
        for name, system, keys in cli_systems():
            prefix = os.path.join(workdir, name)
            system.save_matrix_market(prefix)
            out = os.path.join(workdir, f"{name}_out")
            config = os.path.join(workdir, f"{name}.cfg")
            with open(config, "w") as f:
                f.write(
                    f"system = {prefix}\n{keys}tol = 1e-3\ndelta = 1e-8\nfitter = loewner\n"
                    f"seed = 0\noutput_dir = {out}\n"
                )
            for command in ("run", "validate", "verify"):
                proc = subprocess.run(
                    [sys.executable, "-m", "greedyrat.cli", command, config], env=env, capture_output=True
                )
                # a message that names a file names it in this temporary directory
                stdout, stderr = (b.replace(workdir.encode(), b"<dir>") for b in (proc.stdout, proc.stderr))
                yield f"{name:<10}{command:<9}exit {proc.returncode}  stdout {sha(stdout)}  stderr {sha(stderr)}"
            for artifact in sorted(os.listdir(out)):
                with open(os.path.join(out, artifact), "rb") as f:
                    data = f.read()
                if data.startswith(b"# generated"):
                    data = data.split(b"\n", 1)[1]
                yield f"{name:<10}{artifact:<16}{sha(data)}"


def recounted_test_calls(run):
    """Each record's test_calls, recounted from the store's solves."""
    training = set(run.sampled_frequencies)
    its = collections.Counter(it for z, (_, it) in run.store.solves.items() if z not in training)
    return [its[rec.iteration] for rec in run.records]


def digest(run):
    """sha256 over the run's surrogates, records, samples and solves."""
    h = hashlib.sha256()
    for sur in run.surrogates:
        for arr in (sur.support, sur.values, sur.coeffs):
            h.update(np.ascontiguousarray(arr).tobytes())
    for rec in run.records:
        fields = [f.name for f in dataclasses.fields(rec) if f.name != "elapsed"]
        h.update(repr([getattr(rec, name) for name in fields]).encode())
    h.update(np.asarray(run.sampled_frequencies, dtype=np.complex128).tobytes())
    h.update(repr(run.resonances).encode())
    h.update(repr(run.n_random_solved).encode())
    h.update(repr([(z, it) for z, (_, it) in run.store.solves.items()]).encode())
    return h.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory that holds greedyrat")
    args = parser.parse_args()
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import greedyrat
    # an installed greedyrat or a PYTHONPATH entry would otherwise stand in
    # for a --src that holds no package
    if not os.path.abspath(greedyrat.__file__).startswith(src + os.sep):
        sys.exit(f"imported greedyrat from {greedyrat.__file__}, not from --src {src}")
    from greedyrat import GreedyConfig, TerminationRule, run_greedy

    # output-only MRI warns once its samples outnumber p*m; not a failure here
    warnings.simplefilter("ignore")
    t0 = time.perf_counter()
    for name, system, f_min, f_max in systems():
        for fitter in ("loewner", "mri"):
            for kind, keys in RULES:
                for tol in (1e-3, 1e-6):
                    rule = TerminationRule(kind=kind, **keys)
                    cfg = GreedyConfig(
                        f_min=f_min, f_max=f_max, grid_size=2000, tol=tol, fitter=fitter, termination=rule
                    )
                    run = run_greedy(system, cfg)
                    samples = len(run.samples)
                    ledger = samples + sum(r.test_calls for r in run.records) + run.n_random_solved
                    label = f"{name} {fitter} {kind} {tol:g}"
                    assert run.oracle_calls == ledger, f"{label}: ledger broken"
                    test_calls = [r.test_calls for r in run.records]
                    assert test_calls == recounted_test_calls(run), f"{label}: test_calls differ from the store"
                    print(
                        f"{name:<7}{fitter:<8}{kind:<17}{tol:<6g}samples {samples:>3}  "
                        f"calls {run.oracle_calls:>3}  stop {run.termination_reason:<16} {digest(run)}"
                    )
    for line in pencil_lines():
        print(line)
    for line in cli_lines(src):
        print(line)
    print(f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
