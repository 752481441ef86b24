"""Order-keeping map of independent per-frequency work over the usable CPUs.

``map_points(fn, points)`` returns ``[fn(z) for z in points]``, with a
``ResonanceError`` raised by ``fn`` in place of its result. The first
``TIMED_CALLS`` points run in this process and are timed. When the fastest
of them says a pool would finish the rest sooner, they are cut into equal contiguous chunks, one per worker
and at most one worker per usable CPU, and each chunk runs in a worker
forked for this one call. The workers inherit ``fn`` and ``points`` through
the fork, so ``fn`` may be a closure or a bound method of a large system;
only chunk bounds and results cross the pipe. Otherwise the same chunk
function runs in this process: for cheap or few calls, on one usable CPU,
and wherever forking is not safe.

Processes, not threads: scipy's LAPACK wrappers hold the GIL, and two
threads over 1000 solves of the benchmark's n = 3000 chain took 0.69 s
against 0.52 s for one (medians, 2-core x86, one BLAS thread). Fork, not
spawn: a spawned worker imports numpy, scipy and greedyrat afresh, which
costs more than ``greedyrat validate``'s whole grid on that chain saves.
Fork is safe only where no other thread can hold a lock the child would
inherit, so the pool forks only on Linux and only while this process runs
a single thread (``/proc/self/task``). A BLAS library that keeps its own
thread pool (OpenBLAS unless ``OPENBLAS_NUM_THREADS=1``) therefore keeps
every call in-process. The executor forks all its workers before it starts
its own threads, so the check made before the pool starts holds for every
fork, and Python 3.12's warning on forking a multi-threaded process is
never due.

Only work whose calls are independent and have no effect outside their
result belongs here: a call made in a worker leaves no trace in this
process (``run_greedy``'s oracle memo, or a user oracle counting its
calls, would not see it).
"""
import os
import sys
import time

from .errors import ResonanceError

# The pool's estimated cost: FORK_SECONDS per worker for its fork and join,
# and RESULT_SECONDS per result sent back (pickling, the pipe, copy-on-write
# faults). On a 2-core x86 machine (one BLAS thread, an 80-110 MB process)
# pooled times over 40-4000 points of the benchmark's n = 3000 chain
# (0.7 ms a call) and the tests' n = 200 spring chain (0.07 ms a call) fit
# 17-23 ms for forking and joining 2 workers and 0.011 ms a result.
# FORK_SECONDS is twice the measured share of a worker, so a pool is
# chosen only where it should save about what it costs: from about 120
# calls of the benchmark chain and 1500 of the spring chain.
FORK_SECONDS = 0.02
RESULT_SECONDS = 1.1e-5

# Calls timed in this process before the choice, of which the fastest
# counts: a process's first call can take 4 times as long as the next
# (0.32 against 0.07-0.09 ms on the spring chain, 1.0 against 0.7 ms on
# the benchmark chain), and a single call can be preempted.
TIMED_CALLS = 3

# (fn, points) of the map_points call in progress; forked workers read it.
_work = None


def usable_cpus():
    """The CPUs this process may run on (its affinity mask where there is one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def fork_is_safe():
    """True on Linux while this process runs no thread but the calling one."""
    if sys.platform != "linux":
        return False
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _worker_count(count, seconds_per_call):
    """Workers for ``count`` calls of about ``seconds_per_call`` each.

    The number, at most one per usable CPU, with the least estimated time:
    ``count * seconds_per_call`` in this process, or for w workers
    ``w * FORK_SECONDS + count * (seconds_per_call / w + RESULT_SECONDS)``.
    """
    if not fork_is_safe():
        return 1

    def estimate(w):
        if w == 1:
            return count * seconds_per_call
        return w * FORK_SECONDS + count * (seconds_per_call / w + RESULT_SECONDS)

    return min(range(1, max(1, min(usable_cpus(), count)) + 1), key=estimate)


def _chunk(lo, hi):
    """fn over points[lo:hi], a ResonanceError kept as that point's result."""
    fn, points = _work
    out = []
    for z in points[lo:hi]:
        try:
            out.append(fn(z))
        except ResonanceError as exc:
            out.append(exc)
    return out


def map_points(fn, points):
    """[fn(z) for z in points] in input order, split over the usable CPUs when it pays.

    A ``ResonanceError`` from ``fn`` is returned at its point's position;
    any other exception propagates. ``points`` must support ``len`` and
    slicing (a list or a NumPy array). Every worker has exited when this
    returns or raises.
    """
    global _work
    n = len(points)
    _work = (fn, points)
    try:
        head, seconds = [], []
        for k in range(min(n, TIMED_CALLS)):
            start = time.perf_counter()
            head += _chunk(k, k + 1)
            seconds.append(time.perf_counter() - start)
        done = len(head)
        workers = _worker_count(n - done, min(seconds, default=0.0))
        if workers <= 1:
            return head + _chunk(done, n)
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        bounds = [done + (n - done) * w // workers for w in range(workers + 1)]
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            futures = [pool.submit(_chunk, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
            out = head + [r for future in futures for r in future.result()]
        # The executor has joined its threads, but the kernel lists each for
        # a few ms more (0.7-7.7 ms measured): wait, so that the next call
        # finds this process single-threaded again and may fork.
        deadline = time.monotonic() + 0.05
        while not fork_is_safe() and time.monotonic() < deadline:
            time.sleep(0.0005)
        return out
    finally:
        _work = None
