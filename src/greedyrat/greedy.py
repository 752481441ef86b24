"""Greedy driver: adaptive sampling with |Q|^-1 as indicator.

The loop starts from a single sample, refits the barycentric surrogate at
every iteration, sweeps the indicator once over the grid, evaluates the
configured termination rule and, while the rule fails, samples the
transfer function at the grid point maximizing the indicator. Selection
works on that one sweep: next_point takes its argmax and
batch_test_points its largest interior local maxima, with sampled and
banned grid points carrying -1. Termination rules:

  max_count          stop at a fixed sample budget, no error estimate
  density            stop when the next point gets too close (in log10 f)
                     to an existing sample; checked before it is solved,
                     so this rule wastes no sample
  lookahead          1-point error check at the next greedy point; the
                     test sample is reused as the next training sample on
                     failure, so only the terminal sample is "wasted"
  lookahead_memory   lookahead that must succeed N_memory times in a row
  batch              error check at the N largest interior local maxima of
                     the indicator; only the argmax point joins training
  randomized         error check at N frozen log-uniform random points,
                     sampled once up front and never added to training

The three estimator rules (lookahead with or without memory, batch,
randomized) differ only in their test points: each takes the largest
adjusted relative error over them, in one surrogate sweep, as the
estimator and counts consecutive checks below tol.

All rules additionally respect the max_samples safety cap. At the cap the
next greedy point is named (IterationRecord.chosen) but not solved; only
lookahead's probe and batch's test points, which decide the rule, are.

Every oracle solve of a run goes through one memo keyed on the exact
frequency, so no frequency is solved twice. The ledger is exact:
IterationRecord.oracle_calls is the cumulative count of distinct solves,
and IterationRecord.test_calls counts the solves first made in that
iteration at frequencies that never joined training. The first sample
(and the frozen randomized points) belong to iteration 0, so

  oracle_calls == len(samples) + sum(test_calls) (+ n_random_solved)

where GreedyTrace.n_random_solved counts the frozen randomized points that
were solved; a resonant one is dropped and not charged.
"""
import math
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import GreedyratError, GridExhaustedError, ResonanceError
from .fitters import fit
from .system_model import DescriptorSystem, FrequencySample

TERMINATION_KINDS = (
    "max_count",
    "density",
    "lookahead",
    "lookahead_memory",
    "batch",
    "randomized",
)


@dataclass(frozen=True)
class TerminationRule:
    kind: str = "lookahead"
    n_memory: int = 1
    n_batch: int = 1
    n_random: int = 1
    min_gap: float = 1e-3

    def __post_init__(self):
        if not math.isfinite(self.min_gap):
            raise ValueError("min_gap must be finite")
        if self.kind not in TERMINATION_KINDS:
            raise ValueError(
                f"unknown termination kind {self.kind!r}; "
                f"expected one of {', '.join(TERMINATION_KINDS)}"
            )
        if self.kind == "lookahead_memory" and self.n_memory < 1:
            raise ValueError("n_memory must be >= 1")
        if self.kind == "batch" and self.n_batch < 1:
            raise ValueError("n_batch must be >= 1")
        if self.kind == "randomized" and self.n_random < 1:
            raise ValueError("n_random must be >= 1")
        if self.kind == "density" and self.min_gap <= 0:
            raise ValueError("min_gap must be positive")


@dataclass(frozen=True)
class GreedyConfig:
    f_min: float
    f_max: float
    grid_size: int = 10_000
    tol: float = 1e-3
    delta: float = 1e-8
    fitter: str = "loewner"
    termination: TerminationRule = field(default_factory=TerminationRule)
    max_samples: int = 200
    seed: int = 0

    def __post_init__(self):
        for name in ("f_min", "f_max", "tol", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (0 < self.f_min < self.f_max):
            raise ValueError("need 0 < f_min < f_max")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.grid_size < 2:
            raise ValueError("grid_size must be >= 2")
        if self.max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.fitter not in ("loewner", "mri"):
            raise ValueError(f"unknown fitter {self.fitter!r}")


@dataclass
class IterationRecord:
    iteration: int
    n_samples: int
    chosen: complex
    anchor: complex
    estimator: float
    flag: bool
    n_memory: int
    test_calls: int
    oracle_calls: int
    elapsed: float


@dataclass
class GreedyTrace:
    records: list = field(default_factory=list)
    surrogates: list = field(default_factory=list)
    samples: list = field(default_factory=list)
    termination_reason: str = ""
    oracle_calls: int = 0
    resonances: list = field(default_factory=list)
    n_random_solved: int = 0  # frozen randomized test points kept, each one solve

    @property
    def surrogate(self):
        return self.surrogates[-1] if self.surrogates else None

    @property
    def n_iterations(self):
        return len(self.records)

    @property
    def sampled_frequencies(self):
        return [s.z for s in self.samples]

    @property
    def hit_safety_cap(self):
        return self.termination_reason == "max_samples"


def build_test_grid(cfg):
    """grid_size geometrically spaced points i*f on [f_min, f_max]."""
    return 1j * np.geomspace(cfg.f_min, cfg.f_max, cfg.grid_size)


def adjusted_relative_error(exact, approx, delta):
    """||approx - exact||_F / (||exact||_F + delta)."""
    exact = np.asarray(exact)
    approx = np.asarray(approx)
    return float(np.linalg.norm(approx - exact) / (np.linalg.norm(exact) + delta))


def next_point(ind):
    """Grid index of the largest indicator value; ties break to the lowest index.

    Excluded points carry -1, so a negative maximum means none is left.
    """
    if ind.size == 0:
        raise GridExhaustedError("empty test grid")
    k = int(np.argmax(ind))
    if ind[k] < 0:
        raise GridExhaustedError("all grid points already sampled")
    return k


def batch_test_points(ind, n):
    """Grid indices of the top-n interior local maxima of the indicator.

    Ordered by value, descending; falls back to ``[next_point(ind)]`` when
    no admissible interior local maximum exists. Excluded points carry -1.
    """
    interior = np.arange(1, ind.size - 1)
    is_max = (ind[interior] > ind[interior - 1]) & (ind[interior] > ind[interior + 1])
    cand = interior[is_max & (ind[interior] >= 0)]
    if cand.size == 0:
        return [next_point(ind)]
    return list(cand[np.argsort(-ind[cand], kind="stable")][:n])


def random_test_points(cfg):
    """n_random frozen points i*f with log(f) uniform on [log f_min, log f_max]."""
    rng = np.random.default_rng(cfg.seed)
    logf = rng.uniform(math.log(cfg.f_min), math.log(cfg.f_max), cfg.termination.n_random)
    return [1j * math.exp(x) for x in logf]


def _as_oracle(oracle):
    if isinstance(oracle, DescriptorSystem):
        return oracle.eval_transfer
    return oracle


def run_greedy(oracle, cfg):
    """Adaptive sampling loop; returns the full iteration trace.

    ``oracle`` is a DescriptorSystem or any callable z -> p-by-m array.
    Every solve goes through one memo, so no frequency is solved twice.
    Sampling failures at resonant frequencies, and replies with a
    non-finite entry, are recorded and the offending grid point is
    excluded rather than aborting the run. A reply whose shape differs
    from the first one raises GreedyratError.
    """
    rule = cfg.termination
    grid = build_test_grid(cfg)
    eval_oracle = _as_oracle(oracle)
    trace = GreedyTrace()

    solved = {}  # z -> (value, iteration of its solve); one entry per oracle call
    shape = None
    iteration = 0

    def call(z):
        nonlocal shape
        if z in solved:
            return solved[z][0]
        value = np.array(eval_oracle(z))  # a copy, in case the oracle reuses its buffer
        if not np.all(np.isfinite(value)):
            raise ResonanceError(z, f"oracle reply at z = {z} is not finite")
        got = np.atleast_2d(value).shape
        if shape is None:
            shape = got
        elif got != shape:
            raise GreedyratError(
                f"oracle reply at z = {z} has shape {got}, but the first reply had shape {shape}"
            )
        solved[z] = (value, iteration)
        return value

    cache = kernels.CauchyColumns(grid)

    def take(z):
        trace.samples.append(FrequencySample(z, call(z)))
        cache.add(z)

    def ban(k, ind=None):
        trace.resonances.append(complex(grid[k]))
        cache.ban(k)
        if ind is not None:
            ind[k] = -1.0

    def solves(k, ind=None):
        """Solve grid point k; a resonant one is banned and gives False."""
        try:
            call(complex(grid[k]))
            return True
        except ResonanceError:
            ban(k, ind)
            return False

    def pick(ind, halt=None):
        """Next greedy point on this iteration's indicator, solved.

        Resonant grid points are banned and skipped; banning a point only
        lowers its own entry, so one sweep serves every retry. A point for
        which ``halt(z)`` holds is returned unsolved.
        """
        while True:
            k = next_point(ind)
            z = complex(grid[k])
            if (halt is not None and halt(z)) or solves(k, ind):
                return z

    # First sample: the grid point nearest the geometric midpoint of the
    # range, walking outward on resonance failures.
    f_mid = math.sqrt(cfg.f_min * cfg.f_max)
    for k in np.argsort(np.abs(grid.imag - f_mid)):
        if solves(k):
            take(complex(grid[k]))
            break
    else:
        raise GridExhaustedError("no non-resonant grid point for the first sample")

    if rule.kind == "randomized":
        random_pts = []
        for z in random_test_points(cfg):
            try:
                call(z)
                random_pts.append(z)
            except ResonanceError:
                trace.resonances.append(z)
        trace.n_random_solved = len(random_pts)

    # consecutive passed checks an estimator rule needs before it stops
    depth = rule.n_memory if rule.kind == "lookahead_memory" else 1
    n_memory = 0
    while True:
        t0 = time.perf_counter()
        iteration += 1
        n_samples = len(trace.samples)
        capped = n_samples >= cfg.max_samples
        sur = fit(trace.samples, cfg.fitter)
        trace.surrogates.append(sur)
        ind = cache.indicator(sur)

        estimator = math.nan
        anchor = chosen = complex(math.nan, math.nan)
        if rule.kind == "max_count":
            flag = stop = capped
        elif rule.kind == "density":
            logf = np.log10(np.array([s.z.imag for s in trace.samples]))

            def too_close(z):
                return float(np.min(np.abs(np.log10(z.imag) - logf))) < rule.min_gap

            # the gap needs only z, so a point that fails it is never solved
            chosen = pick(ind, halt=lambda z: capped or too_close(z))
            flag = stop = too_close(chosen)
        else:
            # the estimator rules differ only in their solved test points
            if rule.kind == "randomized":
                pts = random_pts
            elif rule.kind == "batch":
                ks = batch_test_points(ind, rule.n_batch)
                pts = [complex(grid[k]) for k in ks if solves(k, ind)]
            else:
                chosen = pick(ind)
                pts = [chosen]
            if pts:
                errs = [
                    adjusted_relative_error(solved[z][0], a, cfg.delta)
                    for z, a in zip(pts, sur.eval_grid(pts))
                ]
                j = int(np.argmax(errs))
                estimator, anchor = errs[j], pts[j]
            flag = estimator < cfg.tol
            n_memory = n_memory + 1 if flag else 0
            stop = n_memory >= depth

        reason = rule.kind if stop else "max_samples" if capped else ""
        if not stop:
            # at the cap the next point is named but not solved
            chosen = pick(ind, halt=lambda z: capped)

        trace.records.append(
            IterationRecord(
                iteration=iteration,
                n_samples=n_samples,
                chosen=chosen,
                anchor=anchor,
                estimator=estimator,
                flag=flag,
                n_memory=n_memory,
                test_calls=0,  # set when the run ends
                oracle_calls=len(solved),
                elapsed=time.perf_counter() - t0,
            )
        )
        if reason:
            # test_calls of iteration i: the solves first made in iteration i
            # at frequencies that never joined training
            training = set(trace.sampled_frequencies)
            wasted = Counter(it for z, (_, it) in solved.items() if z not in training)
            for rec in trace.records:
                rec.test_calls = wasted[rec.iteration]
            trace.termination_reason = reason
            trace.oracle_calls = len(solved)
            return trace
        take(chosen)


def estimator_curve(sur, estimate, anchor, grid):
    """Rescaled indicator eta(z) = estimate * |Q(anchor)| / |Q(z)|.

    Interpolates the supplied error estimate at the anchor frequency and
    inherits the indicator's shape everywhere else.
    """
    q_anchor = abs(sur.eval_denominator(anchor))
    ind = sur.indicator_grid(np.asarray(grid))
    return estimate * q_anchor * ind
