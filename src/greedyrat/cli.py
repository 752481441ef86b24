"""Command-line entry point.

Subcommands:

  greedyrat run <config>                 adaptive sampling; writes
                                         samples.csv, ledger.csv, surrogate.json
  greedyrat validate <config> [surrogate.json]
                                         dense ground-truth sweep of a
                                         surrogate; writes validation.csv
                                         (expensive: one high-fidelity
                                         solve per grid point, split over
                                         the usable CPUs)
  greedyrat verify <config> [surrogate.json]
                                         runs the intrusive residual/error
                                         identity checks on a surrogate,
                                         whose support values must match
                                         this system; writes verify.csv

validate and verify read <output_dir>/surrogate.json, the file run wrote,
unless they are given another path, and reject a surrogate whose blocks
are not the system's p-by-m. validate's grid solves are independent, so
they run through greedyrat.parallel.map_points: wherever forking is safe,
this process solves the first of one chunk per usable CPU and a forked
process each other chunk. verify's probe solves stay in this process,
since forking would cost small systems more than it saves, and so do
run's, each pick depending on the fit before it. A grid point where the
pencil is singular is a validation.csv row with resonance 1; at such a
probe verify fails with the error. A forked child that dies without
replying (killed for memory, say) ends validate with
``error: the child mapping points i to j exited with code k`` and exit
status 1, as any other OSError does.

greedyrat.parallel, and with it ``multiprocessing``, is imported inside
cmd_validate, not at the top of this module, so that a process which
imports the CLI and never validates does not load the fork machinery;
tests/test_imports.py fails when an import of greedyrat.cli loads it again.

Config files are flat ``key = value`` text. The keys are the fields of
``GreedyConfig`` and of its ``TerminationRule`` (whose ``kind`` is spelled
``termination``), plus ``system`` and ``output_dir``; see ``CONFIG_KEYS``.
A relative ``system`` or ``output_dir`` is read against the working
directory, not the config file's; without ``output_dir`` the artifacts go
to the config file's directory. Frequencies are serialized as the
positive real f of z = i*f, and an estimate a run did not draw as null.
"""
import argparse
import contextlib
import csv
import math
import os
import re
import sys as _sys
from dataclasses import MISSING, fields
from datetime import datetime, timezone

import numpy as np

from . import verify as verify_mod
from .barycentric import BarycentricSurrogate
from .errors import GreedyratError, ResonanceError, SupportCollisionError
from .greedy import (
    GreedyConfig,
    TerminationRule,
    build_test_grid,
    adjusted_relative_error,
    estimator_curve,
    run_greedy,
)
from .system_model import load_matrix_market

# Largest adjusted relative error between a loaded surrogate's support
# values and C G(z_j) re-solved on the configured system. `run` stored
# exactly those products, so the same system repeats them up to rounding
# (solves of the lightly damped n = 3000 chain differ by about 4e-12
# between factorizer paths), while a surrogate fitted to another system
# misses by order one.
SUPPORT_MATCH_TOL = 1e-8

# Each GreedyConfig field but `termination` is the config key of its name;
# in its place stand the TerminationRule fields, the rule's `kind` under
# the key `termination`.
_CFG_FIELDS = {f.name: f for f in fields(GreedyConfig) if f.name != "termination"}
_RULE_FIELDS = {("termination" if f.name == "kind" else f.name): f for f in fields(TerminationRule)}

CONFIG_KEYS = {
    "system": str,
    **{key: f.type for key, f in {**_CFG_FIELDS, **_RULE_FIELDS}.items()},
    "output_dir": str,
}

_REQUIRED_KEYS = ["system"] + [
    key for key, f in _CFG_FIELDS.items() if f.default is MISSING and f.default_factory is MISSING
]


class ConfigError(GreedyratError):
    pass


def parse_config(path):
    raw, lines = {}, {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            # a '#' starts a comment only at the start or after whitespace,
            # so a path such as /data/sys#1 keeps its '#'
            line = re.sub(r"(^|\s)#.*", "", line).strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in lines:
                raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line {lines[key]}")
            lines[key] = lineno
            try:
                raw[key] = CONFIG_KEYS[key](value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise ConfigError(f"{path}: missing required key {key!r}")
    return raw


def build_greedy_config(raw):
    """GreedyConfig from parsed keys; absent keys take the dataclass defaults."""
    rule_kwargs = {f.name: raw[key] for key, f in _RULE_FIELDS.items() if key in raw}
    cfg_kwargs = {key: raw[key] for key in _CFG_FIELDS if key in raw}
    try:
        return GreedyConfig(termination=TerminationRule(**rule_kwargs), **cfg_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _load(loader, path):
    """loader(path), with a malformed input file reported as a ConfigError."""
    try:
        return loader(path)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot load {path}: {exc}") from exc


def _load_surrogate(args, system, outdir):
    """(path, surrogate, run metadata) of the surrogate a command works on.

    That is the optional positional path, else <output_dir>/surrogate.json,
    the file `run` wrote. A surrogate whose blocks are not the system's
    p-by-m is rejected.
    """
    path = args.surrogate or os.path.join(outdir, "surrogate.json")
    sur, meta = _load(BarycentricSurrogate.load, path)
    if sur.output_shape != (system.p, system.m):
        raise ConfigError(
            f"{path}: surrogate blocks are {sur.output_shape}, the system's are "
            f"{(system.p, system.m)}"
        )
    return path, sur, meta


def _prepare(args):
    """The preamble every command shares: config, system, output directory.

    The output directory defaults to the config file's directory.
    """
    raw = parse_config(args.config)
    cfg = build_greedy_config(raw)
    system = _load(load_matrix_market, raw["system"])
    outdir = raw.get("output_dir", os.path.dirname(os.path.abspath(args.config)))
    os.makedirs(outdir, exist_ok=True)
    return cfg, system, outdir


def _write_csv(path, header, rows):
    """Two `#` comment lines, the header row, then rows (any iterable)."""
    with open(path, "w", newline="") as f:
        f.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
        f.write("# frequencies are f in z = i*f\n")
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def write_run_artifacts(trace, outdir):
    samples = (
        [r.iteration, r.anchor.imag if math.isnan(r.chosen.imag) else r.chosen.imag]
        + [r.anchor.real, r.anchor.imag, r.estimator, int(r.flag)]
        for r in trace.records
    )
    header = ["iteration", "f", "anchor_re", "anchor_im", "estimator", "flag"]
    _write_csv(os.path.join(outdir, "samples.csv"), header, samples)
    ledger = ([r.iteration, r.n_samples, r.test_calls, r.oracle_calls] for r in trace.records)
    header = ["iteration", "samples", "test_calls", "cumulative_oracle_calls"]
    _write_csv(os.path.join(outdir, "ledger.csv"), header, ledger)
    last = trace.records[-1]
    # a rule that draws no estimate (max_count, density, or randomized where
    # every frozen point resonates) leaves it nan, which JSON spells null
    estimate = (last.estimator, last.anchor.real, last.anchor.imag)
    value, *anchor = (x if math.isfinite(x) else None for x in estimate)
    extra = {
        "termination_reason": trace.termination_reason,
        "estimator_anchor": anchor,
        "estimator_value": value,
        "sampled_f": [z.imag for z in trace.sampled_frequencies],
    }
    trace.surrogate.save(os.path.join(outdir, "surrogate.json"), extra=extra)


def cmd_run(args):
    cfg, system, outdir = _prepare(args)
    trace = run_greedy(system, cfg)
    write_run_artifacts(trace, outdir)
    print(
        f"terminated: {trace.termination_reason} after {trace.n_iterations} iterations, "
        f"{len(trace.samples)} samples, {trace.oracle_calls} oracle calls"
    )
    return 2 if trace.hit_safety_cap else 0


def _finite_real(x):
    return type(x) in (int, float) and math.isfinite(x)  # JSON's true is a bool, an int subclass


def cmd_validate(args):
    from . import parallel  # deferred: see the module docstring

    cfg, system, outdir = _prepare(args)
    _, sur, meta = _load_surrogate(args, system, outdir)
    grid = build_test_grid(cfg)
    approx = sur.eval_grid(grid)
    eta = np.full(grid.size, math.nan)
    estimate, anchor = meta.get("estimator_value"), meta.get("estimator_anchor")
    # a file from elsewhere may hold null, a string or nan: no estimate then,
    # and no eta curve without an anchor of two finite reals off the support,
    # where |Q| has no finite value to scale by
    estimate = estimate if _finite_real(estimate) else None
    if estimate is not None and isinstance(anchor, list) and len(anchor) == 2 and all(map(_finite_real, anchor)):
        with contextlib.suppress(SupportCollisionError):
            eta = estimator_curve(sur, estimate, complex(*anchor), grid)
    # On Linux map_points forks no child in a process that runs threads, as
    # an unpinned OpenBLAS thread pool makes it when numpy loads; elsewhere
    # it never forks, and no setting would help
    cpus = parallel.usable_cpus()
    if _sys.platform == "linux" and cpus > 1 and not parallel.fork_is_safe():
        print(
            f"note: this process runs threads, so validate solves on one of {cpus} usable CPUs;"
            " set OPENBLAS_NUM_THREADS=1 to let it fork and solve on all of them",
            file=_sys.stderr,
        )

    def transfer(z):
        # a resonant grid point is a row of the report, not a failure
        try:
            return system.eval_transfer(z)
        except ResonanceError as exc:
            return exc

    exact = parallel.map_points(transfer, grid)
    p, m = sur.output_shape
    errors = []  # the eps of each grid point that is not a resonance

    def rows():
        for k, (z, H) in enumerate(zip(grid, exact)):
            if isinstance(H, ResonanceError):
                yield [z.imag, math.nan, eta[k], 1, math.nan] + [math.nan] * 2 * p * m
                continue
            eps = adjusted_relative_error(H, approx[k], cfg.delta)
            errors.append(eps)
            row = [z.imag, eps, eta[k], 0, float(np.linalg.norm(H))]
            row += [abs(x) for x in H.ravel()]
            row += [abs(x) for x in approx[k].ravel()]
            yield row

    header = ["f", "eps", "eta", "resonance", "H_norm"]
    header += [f"absH_{i}_{j}" for i in range(p) for j in range(m)]
    header += [f"absHs_{i}_{j}" for i in range(p) for j in range(m)]
    _write_csv(os.path.join(outdir, "validation.csv"), header, rows())
    # a grid of resonances only measures no error: print nan and exit 1
    max_err = max(errors, default=math.nan)
    print(f"max adjusted relative error over the grid: {max_err:.6e}")
    if estimate is not None and estimate > 0:
        print(f"effectivity, grid maximum / run's estimator value: {max_err / estimate:.6e}")
    return 0 if errors else 1


def _check_support_values(sur, gsur, system, delta, path):
    """Reject a loaded surrogate whose support values are not this system's C G(z_j)."""
    for z, H, G in zip(sur.support, sur.values, gsur.values):
        err = adjusted_relative_error(system.C @ G, H, delta)
        if not err <= SUPPORT_MATCH_TOL:
            raise ConfigError(
                f"{path} does not match the system: at f = {z.imag:.6g} its support value "
                f"differs from C G(z) by {err:.3e} (tolerance {SUPPORT_MATCH_TOL:g})"
            )


def cmd_verify(args):
    cfg, system, outdir = _prepare(args)
    path, sur, _ = _load_surrogate(args, system, outdir)
    gsur = verify_mod.state_surrogate(sur, system)
    _check_support_values(sur, gsur, system, cfg.delta, path)
    seed = [cfg.seed, verify_mod.PROBE_STREAM]
    zs = verify_mod.draw_probe_points(sur, cfg.f_min, cfg.f_max, 100, seed=seed)
    p1 = verify_mod.check_prop1(system, sur, zs, gsur=gsur)
    p2 = verify_mod.check_prop2(system, sur, zs, cfg.delta, gsur=gsur)
    rows = (
        [z.imag, ra / absq, absq, ra, eps, d]
        for z, absq, ra, eps, d in zip(zs, p1.absq, p1.rho_absq, p2.eps, p2.delta)
    )
    header = ["f", "rho", "absQ", "rho_absQ", "eps", "Delta"]
    _write_csv(os.path.join(outdir, "verify.csv"), header, rows)
    print(
        f"gamma = {p1.gamma_estimate:.6e} (formula {p1.gamma_formula:.6e}), "
        f"rho*|Q| relative spread = {p1.max_relative_spread:.3e}"
    )
    print(
        f"max |eps*|Q| - Delta| / Delta = {max(p2.identity_residuals):.3e}, "
        f"Delta_max = {p2.delta_max:.6e}"
    )
    if p1.coeff_sum_ratio < verify_mod.EXACT_FIT_RATIO:
        print(
            f"note: sum_j q_j E G(z_j) cancels to {p1.coeff_sum_ratio:.1e} of its terms: "
            "the fit is exact to rounding, and the spread and residual above are noise"
        )
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="greedyrat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run the adaptive sampling loop")
    p_run.add_argument("config")
    surrogate_help = "surrogate.json written by run (default: <output_dir>/surrogate.json)"
    p_val = sub.add_parser("validate", help="dense exact sweep against a saved surrogate")
    p_ver = sub.add_parser("verify", help="intrusive residual/error identity checks")
    for p in (p_val, p_ver):
        p.add_argument("config")
        p.add_argument("surrogate", nargs="?", help=surrogate_help)
    args = parser.parse_args(argv)
    handlers = {"run": cmd_run, "validate": cmd_validate, "verify": cmd_verify}
    try:
        return handlers[args.command](args)
    except (OSError, GreedyratError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
