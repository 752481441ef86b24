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
                     the indicator, solved in that order up to the first
                     one that misses tol; only the argmax point joins
                     training
  randomized         error check at N frozen log-uniform random points,
                     sampled once up front and never added to training

The three estimator rules (lookahead with or without memory, batch,
randomized) differ only in their test points: each takes the largest
adjusted relative error over them, in one surrogate sweep, as the
estimator and counts consecutive checks below tol. A failing batch check
stops at its first failing point, so its estimator is that point's error,
a lower bound >= tol on the max over all its points; the flag, and with
it every sample and the stop, is that of the full check. A resonant point
after the first failing one is left untried, and banned only when a later
iteration solves it.

All rules additionally respect the max_samples safety cap. At the cap the
next greedy point is named (IterationRecord.chosen) but not solved; only
lookahead's probe and batch's test points, which decide the rule, are.

Every oracle solve is recorded once, in one SampleStore that is also the
memo, so no frequency is solved twice. The ledger is exact after every
step: IterationRecord.oracle_calls counts the distinct solves so far, and
IterationRecord.test_calls the solves made in that iteration at
frequencies that have not joined training (a point that joins later is
taken off the record that solved it; a failing batch check adds only the
points it solved). The first sample and the frozen randomized points
belong to iteration 0, so, over the finished records of any run,

  records[-1].oracle_calls == len(samples) + sum(test_calls) (+ n_random_solved)

where GreedyRun.n_random_solved counts the frozen randomized points that
were solved; a resonant one is dropped and not charged.
"""
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import GreedyratError, GridExhaustedError, ResonanceError
from .fitters import SampleArrays, fit
from .system_model import DescriptorSystem

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


class SampleStore:
    """Each distinct oracle solve of a run, recorded once.

    ``solves`` maps each solved z, in solve order, to its complex128 p-by-m
    reply and the iteration of its solve. The training samples sit in the
    read-only arrays ``z`` and ``values`` in the order they joined, which
    is the order of CauchyColumns' columns; a take replaces the two arrays
    rather than writing them.
    """

    def __init__(self):
        self.solves = {}
        self.z, self.values = np.empty(0, dtype=np.complex128), None

    def take(self, z):
        value = self.solves[z][0][None]
        self.values = np.concatenate((self.values, value)) if self.z.size else value.copy()
        self.z = np.append(self.z, z)
        self.z.flags.writeable = self.values.flags.writeable = False


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
        raise GridExhaustedError("every grid point is sampled or banned")
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


class GreedyRun:
    """One greedy run: the driver, and its own trace.

    ``oracle`` is a DescriptorSystem or any callable z -> p-by-m array.
    The constructor solves nothing. ``run()`` takes the first sample and
    calls ``step()``, one iteration, until the rule or the max_samples cap
    stops the run. Every solve is recorded once in ``store``, so no
    frequency is solved twice, and an exception that escapes leaves the
    run holding every solve, record and surrogate made before it. A run
    runs once: ``run()`` after the first sample, and ``step()`` once the
    run has stopped or a step has raised, raise GreedyratError.
    Sampling failures at resonant frequencies, and replies with a
    non-finite entry, are recorded and the offending grid point is
    excluded rather than aborting the run. A reply whose shape differs
    from the first one raises GreedyratError.
    """

    def __init__(self, oracle, cfg):
        self.cfg = cfg
        self.oracle = oracle.eval_transfer if isinstance(oracle, DescriptorSystem) else oracle
        self.grid = build_test_grid(cfg)
        self.cache = kernels.CauchyColumns(self.grid)
        self.store = SampleStore()
        self.records, self.surrogates, self.resonances = [], [], []
        self.random_pts = []  # the frozen randomized test points that solved
        self.termination_reason = ""
        self.iteration = 0
        self._shape = None

    @property
    def oracle_calls(self):
        return len(self.store.solves)

    @property
    def n_random_solved(self):
        return len(self.random_pts)

    @property
    def surrogate(self):
        return self.surrogates[-1] if self.surrogates else None

    @property
    def n_iterations(self):
        return len(self.records)

    @property
    def samples(self):
        """The training samples in the order they joined, over the store's arrays."""
        return SampleArrays(self.store.z, self.store.values)

    @property
    def sampled_frequencies(self):
        return self.store.z.tolist()

    @property
    def hit_safety_cap(self):
        return self.termination_reason == "max_samples"

    def _call(self, z):
        if z in self.store.solves:
            return self.store.solves[z][0]
        # a copy, in case the oracle reuses its buffer
        value = np.array(self.oracle(z), dtype=np.complex128, ndmin=2)
        if not np.all(np.isfinite(value)):
            raise ResonanceError(z, f"oracle reply at z = {z} is not finite")
        self._shape = self._shape or value.shape
        if value.shape != self._shape:
            raise GreedyratError(
                f"oracle reply at z = {z} has shape {value.shape}, but the first reply had shape {self._shape}"
            )
        self.store.solves[z] = (value, self.iteration)
        return value

    def _take(self, z):
        # a taken solve is no test call of the iteration that made it
        it = self.store.solves[z][1]
        if it:
            self.records[it - 1].test_calls -= 1
        self.store.take(z)
        self.cache.add(z)

    def _solves(self, z, k=None, ind=None):
        """Solve z; a resonant z is recorded and gives False, and its grid
        index k, when given, is banned and marked -1 in ``ind``."""
        try:
            self._call(z)
            return True
        except ResonanceError:
            self.resonances.append(z)
            if k is not None:
                self.cache.ban(k)
                ind[k] = -1.0
            return False

    def _pick(self, ind, halt=None):
        """Next greedy point on this iteration's indicator, solved.

        Resonant grid points are banned and skipped; banning a point only
        lowers its own entry, so one sweep serves every retry. A point for
        which ``halt(z)`` holds is returned unsolved.
        """
        while True:
            k = next_point(ind)
            z = complex(self.grid[k])
            if (halt is not None and halt(z)) or self._solves(z, k, ind):
                return z

    def run(self):
        """Take the first sample, then step until the run stops; returns self."""
        if self.store.z.size:
            raise GreedyratError("run() on a run that has already taken its first sample")
        # First sample: the greedy pick on a ranking of the grid by distance
        # from the geometric midpoint of the range, nearest highest, so it
        # walks outward past resonant points as every later pick does.
        f_mid = math.sqrt(self.cfg.f_min * self.cfg.f_max)
        near = np.empty(self.grid.size)
        near[np.argsort(np.abs(self.grid.imag - f_mid))] = np.arange(self.grid.size, 0, -1)
        self._take(self._pick(near))
        if self.cfg.termination.kind == "randomized":
            self.random_pts = [z for z in random_test_points(self.cfg) if self._solves(z)]
        while not self.termination_reason:
            self.step()
        return self

    def step(self):
        """One iteration: fit, sweep, check the rule, then sample or stop; returns its record."""
        if self.termination_reason or not self.store.z.size or len(self.records) != self.iteration:
            raise GreedyratError("step() on a run that has no first sample, has stopped or has raised")
        cfg, rule, store = self.cfg, self.cfg.termination, self.store
        t0 = time.perf_counter()
        calls = self.oracle_calls
        self.iteration += 1
        n_samples = store.z.size
        capped = n_samples >= cfg.max_samples
        sur = fit(self.samples, cfg.fitter)
        self.surrogates.append(sur)
        ind = self.cache.indicator(sur)

        estimator, n_memory = math.nan, 0
        anchor = chosen = complex(math.nan, math.nan)
        if rule.kind == "max_count":
            flag = stop = capped
        elif rule.kind == "density":
            logf = np.log10(store.z.imag)

            def too_close(z):
                return float(np.min(np.abs(np.log10(z.imag) - logf))) < rule.min_gap

            # the gap needs only z, so a point that fails it is never solved
            chosen = self._pick(ind, halt=lambda z: capped or too_close(z))
            flag = stop = too_close(chosen)
        else:
            # the estimator rules differ only in their test points, each a
            # (grid index or None, z); lookahead's and the frozen points are
            # solved already
            if rule.kind == "batch":
                tests = [(k, complex(self.grid[k])) for k in batch_test_points(ind, rule.n_batch)]
            elif rule.kind == "randomized":
                tests = [(None, z) for z in self.random_pts]
            else:
                chosen = self._pick(ind)
                tests = [(None, chosen)]
            tested, errs = [], []
            # one sweep, then solves in order; a resonant point is skipped
            for (k, z), a in zip(tests, sur.eval_grid([z for _, z in tests])):
                if self._solves(z, k, ind):
                    tested.append(z)
                    errs.append(adjusted_relative_error(self._call(z), a, cfg.delta))
                    # batch stops at the first point that fails tol (a NaN
                    # error fails, as in the max): that point decides the check
                    if rule.kind == "batch" and not errs[-1] < cfg.tol:
                        break
            if errs:
                j = int(np.argmax(errs))
                estimator, anchor = errs[j], tested[j]
            flag = estimator < cfg.tol
            # consecutive passed checks an estimator rule needs before it stops
            n_memory = 1 + (self.records[-1].n_memory if self.records else 0) if flag else 0
            stop = n_memory >= (rule.n_memory if rule.kind == "lookahead_memory" else 1)

        reason = rule.kind if stop else "max_samples" if capped else ""
        if not stop:
            # at the cap the next point is named but not solved
            chosen = self._pick(ind, halt=lambda z: capped)

        record = IterationRecord(
            iteration=self.iteration,
            n_samples=n_samples,
            chosen=chosen,
            anchor=anchor,
            estimator=estimator,
            flag=flag,
            n_memory=n_memory,
            test_calls=self.oracle_calls - calls,  # until _take claims one
            oracle_calls=self.oracle_calls,
            elapsed=time.perf_counter() - t0,
        )
        self.records.append(record)
        self.termination_reason = reason
        if not reason:
            self._take(chosen)
        return record


def run_greedy(oracle, cfg):
    """The finished GreedyRun of ``oracle`` under ``cfg``."""
    return GreedyRun(oracle, cfg).run()


def estimator_curve(sur, estimate, anchor, grid):
    """Rescaled indicator eta(z) = estimate * |Q(anchor)| / |Q(z)|.

    Interpolates the supplied error estimate at the anchor frequency and
    inherits the indicator's shape everywhere else.
    """
    q_anchor = abs(sur.eval_denominator(anchor))
    ind = sur.indicator_grid(np.asarray(grid))
    return estimate * q_anchor * ind
