"""Order-keeping map of independent per-frequency work over the usable CPUs.

``map_points(fn, points)`` returns ``[fn(z) for z in points]``; an
exception from ``fn`` propagates, the first in point order. What a failed
point means, such as validate's resonance row, is for the caller's ``fn``
to say. The points are cut into equal contiguous chunks, one per usable
CPU and at most one per point where forking is safe, else one chunk. The
calling process maps the first chunk itself, and one process forked for
this call maps each other chunk. A child inherits ``fn`` and its chunk
through the fork, so ``fn`` may be a closure or a bound method of a large
system; only its results, or the first exception its ``fn`` raised with
that exception's traceback as text, cross its one-way pipe. Here that
exception is raised with the text chained as its ``__cause__``, as
``concurrent.futures`` does, so a traceback shows the child's failing
frame. With one chunk nothing forks and the same loop maps every point
here, reading no shared state, so two threads may map at once.

The split reads only what the code can see, not how long a call takes.
Medians of 15 alternating maps of ``eval_transfer`` on a shared 2-core
x86 machine with one BLAS thread, in ms: in-process, on a
``ProcessPoolExecutor`` of 2 workers (whose threads leave this process
unable to fork for a few ms after each map), and as here:

    map of eval_transfer                        in-process  pool  as here
    8-pole system, 100 points                          3.0  19.1      9.8
    the tests' spring_chain(), 1000 points            61.9  62.6     48.5
    the benchmark's n = 3000 chain, 100 points        47.7  39.7     32.4
    the benchmark's n = 3000 chain, 1000 points      486.0 305.9    283.6

Runs of the same map vary by up to a third on that machine. A short map
of cheap calls loses the few ms a fork costs: ``greedyrat validate``'s
dense grid comes here, and ``greedyrat verify``'s 100 probes, which
would lose about 3x on small systems (the 8-pole row), do not.

Processes, not threads: scipy's LAPACK wrappers hold the GIL, and two
threads over 1000 solves of the benchmark's n = 3000 chain took 0.69 s
against 0.52 s for one (medians, 2-core x86, one BLAS thread). Fork, not
spawn: a spawned child imports numpy, scipy and greedyrat afresh, which
costs more than ``greedyrat validate``'s whole grid on that chain saves.
Fork is safe only where no other thread can hold a lock the child would
inherit, so the map forks only on Linux and only while this process runs
a single thread (``/proc/self/task``). A BLAS library that keeps its own
thread pool (OpenBLAS unless ``OPENBLAS_NUM_THREADS=1``) therefore keeps
every call in-process. Forking a child starts no thread here, so the
process that a map returns to may fork again at once.

Only work whose calls are independent and have no effect outside their
result belongs here: a call made in a child leaves no trace in this
process (a ``GreedyRun``'s store, or a user oracle counting its
calls, would not see it).

A child that exits without replying, killed for memory say, raises
``ChildProcessError``: an ``OSError``, so ``greedyrat validate`` reports
it as one line and exits 1. This module imports ``multiprocessing`` at
its top, and no module of the package imports this one at its top:
``greedyrat.cli`` imports it inside ``cmd_validate``, so a process that
never maps loads neither.
"""
import multiprocessing
import os
import sys
import traceback


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


class _RemoteTraceback(Exception):
    """The traceback of an exception raised in a child, as text: its ``__cause__``."""

    def __str__(self):
        return f'\n"""\n{self.args[0]}"""'


def _reply(fn, chunk, send):
    """In a forked child: send [fn(z) for z in chunk], or the first exception and its traceback."""
    try:
        send.send([fn(z) for z in chunk])
    except Exception as exc:
        send.send((exc, traceback.format_exc()))


def map_points(fn, points):
    """[fn(z) for z in points] in input order, split over the usable CPUs where forking is safe.

    An exception from ``fn`` propagates, the one at the first failing point
    in point order, whether that point ran here or in a child, where its
    traceback comes along as the text of its ``__cause__``; a child that
    exits without a reply raises ``ChildProcessError``, an ``OSError``,
    naming its first and last point index and its exit code. ``points``
    must support ``len`` and slicing (a list or a NumPy array). Every child
    has exited when this returns or raises.
    """
    workers = max(1, min(usable_cpus(), len(points))) if fork_is_safe() else 1
    bounds = [len(points) * w // workers for w in range(workers + 1)]
    children = []
    try:
        for lo, hi in zip(bounds[1:], bounds[2:]):
            receive, send = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.get_context("fork").Process(target=_reply, args=(fn, points[lo:hi], send))
            with send:  # only the child writes: its exit ends the pipe
                child.start()
            children.append((child, receive))
        out = [fn(z) for z in points[: bounds[1]]]
        for (child, receive), lo, hi in zip(children, bounds[1:], bounds[2:]):
            try:
                reply = receive.recv()
            except EOFError:
                child.join()
                raise ChildProcessError(
                    f"the child mapping points {lo} to {hi - 1} exited with code {child.exitcode}"
                ) from None
            if isinstance(reply, tuple):
                exc, text = reply
                raise exc from _RemoteTraceback(text)
            out += reply
        return out
    finally:
        for child, receive in children:
            receive.close()
            child.kill()
            child.join()
