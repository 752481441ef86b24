import multiprocessing
import os
import pickle
import signal
import threading
import time
import warnings

import numpy as np
import pytest

from conftest import pin_workers
from greedyrat import (
    GridExhaustedError,
    ResonanceError,
    SupportCollisionError,
    SurrogatePoleError,
    parallel,
)
from greedyrat.parallel import map_points
from greedyrat.testsystems import spring_chain

POINTS = list(1j * np.geomspace(1.0, 100.0, 37))


@pytest.fixture(autouse=True)
def time_bound():
    """Fail, rather than hang, a test whose workers have not finished in 60 s."""

    def expire(signum, frame):
        for child in multiprocessing.active_children():
            child.kill()
        raise TimeoutError("map_points did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_results_keep_input_order(monkeypatch, workers):
    pin_workers(monkeypatch, workers)
    offset = 0.5 - 2j  # a closure: workers inherit fn, nothing pickles it
    assert map_points(lambda z: z * z + offset, POINTS) == [z * z + offset for z in POINTS]
    grid = np.array(POINTS)
    assert map_points(lambda z: z * z + offset, grid) == [z * z + offset for z in grid]
    assert map_points(abs, []) == []


def test_each_chunk_runs_whole_in_one_worker(monkeypatch):
    pin_workers(monkeypatch, 2)
    pids = map_points(lambda z: os.getpid(), POINTS)
    # 37 points in 2 chunks, bounds 0, 18, 37: this process maps the first,
    # one forked child the second
    assert pids[:18] == [os.getpid()] * 18
    assert pids[18:] == [pids[-1]] * 19 and pids[-1] != os.getpid()


def test_cheap_calls_fork_wherever_they_safely_can(monkeypatch):
    # no stopwatch decides: half the test chain's 0.07 ms solves go to a
    # child on 2 usable CPUs, and all stay here only on one CPU or beside
    # another thread
    chain = spring_chain()
    grid = 1j * np.geomspace(1e-2, 3.0, 200)
    want = [chain.eval_transfer(z) for z in grid]

    def solving_pids():
        out = map_points(lambda z: (os.getpid(), chain.eval_transfer(z)), grid)
        assert all(np.array_equal(H, w) for (_, H), w in zip(out, want))
        return {pid for pid, _ in out}

    pin_workers(monkeypatch, 2)
    pids = solving_pids()
    assert os.getpid() in pids and len(pids) == 2
    pin_workers(monkeypatch, 1)
    assert solving_pids() == {os.getpid()}
    pin_workers(monkeypatch, 2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert solving_pids() == {os.getpid()}
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    # the kernel lists a joined thread for a few ms more; the next test forks
    deadline = time.monotonic() + 1.0
    while not parallel.fork_is_safe() and time.monotonic() < deadline:
        time.sleep(0.0005)


def test_a_process_running_threads_forks_no_worker(monkeypatch):
    pin_workers(monkeypatch, 2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert not parallel.fork_is_safe()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert set(map_points(lambda z: os.getpid(), POINTS)) == {os.getpid()}
        assert caught == []
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_two_threads_map_at_once_without_mixing():
    # thread a stops in its first call until b's first call has started,
    # and b's waits until a has finished: a runs its other calls while b's
    # map is in progress, and b its others after a's has returned
    a_waiting, b_started, a_done = threading.Event(), threading.Event(), threading.Event()
    out = {}

    def fn_a(z):
        if z == POINTS[0]:
            a_waiting.set()
            assert b_started.wait(10)
        return "a", z

    def fn_b(z):
        if z == POINTS[0]:
            b_started.set()
            assert a_done.wait(10)
        return "b", z

    def map_a():
        try:
            out["a"] = map_points(fn_a, POINTS)
        finally:
            a_done.set()

    thread = threading.Thread(target=map_a)
    thread.start()
    try:
        assert a_waiting.wait(10)
        out["b"] = map_points(fn_b, POINTS)
    finally:
        b_started.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert out == {name: [(name, z) for z in POINTS] for name in "ab"}
    # the kernel lists a joined thread for a few ms more; the next test forks
    deadline = time.monotonic() + 1.0
    while not parallel.fork_is_safe() and time.monotonic() < deadline:
        time.sleep(0.0005)


def test_back_to_back_pools_fork_without_a_warning(monkeypatch):
    # Python 3.12 and later warn when os.fork runs beside other threads,
    # and CPython swallows that warning even under -W error: record it
    pin_workers(monkeypatch, 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(3):
            pids = set(map_points(lambda z: os.getpid(), POINTS))
            assert os.getpid() in pids and len(pids) == 2
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("count, usable", [(5, 5), (None, 1)])
def test_usable_cpus_without_an_affinity_mask_is_the_cpu_count(monkeypatch, count, usable):
    # as on macOS and Windows, whose os has no sched_getaffinity
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert parallel.usable_cpus() == usable


def test_fork_is_unsafe_off_linux(monkeypatch):
    assert parallel.fork_is_safe()
    monkeypatch.setattr(parallel.sys, "platform", "darwin")
    assert not parallel.fork_is_safe()


def test_fork_is_unsafe_when_the_thread_list_cannot_be_read(monkeypatch):
    listdir = os.listdir

    def unreadable(path):
        if path == "/proc/self/task":
            raise PermissionError(13, "Permission denied", path)
        return listdir(path)

    assert parallel.fork_is_safe()
    monkeypatch.setattr(os, "listdir", unreadable)
    assert not parallel.fork_is_safe()


def test_one_usable_cpu_stays_in_process(monkeypatch):
    pin_workers(monkeypatch, 1)
    assert set(map_points(lambda z: os.getpid(), POINTS)) == {os.getpid()}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("k", [0, 17, 18, 36])
def test_other_errors_propagate(monkeypatch, workers, k):
    # a resonance is no different: what a failed point means is the caller's.
    # On 2 workers, 0 and 17 begin and end the first chunk, 18 and 36 the second
    pin_workers(monkeypatch, workers)
    failing = [j for j in (0, 17, 18, 36) if j >= k]
    for error in (ValueError, ResonanceError):

        def fn(j):
            if j in failing:
                raise error(1j * j)
            return j

        with pytest.raises(error) as raised:
            map_points(fn, list(range(37)))
        # the first failing point in point order, whichever worker ran it
        assert type(raised.value) is error and str(raised.value) == str(error(1j * k))
        # every child has exited, and none started a thread here
        assert multiprocessing.active_children() == []
        assert parallel.fork_is_safe()


def test_a_forked_map_starts_no_thread(monkeypatch):
    def no_thread(self):
        raise RuntimeError("map_points started a thread")

    pin_workers(monkeypatch, 2)
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    pids = set(map_points(lambda z: os.getpid(), POINTS))
    assert os.getpid() in pids and len(pids) == 2
    # no thread to wait for: the next map may fork at once
    assert parallel.fork_is_safe()


def test_a_child_that_exits_without_replying_raises(monkeypatch):
    parent = os.getpid()

    def fn(j):
        if j == 30 and os.getpid() != parent:  # in the second chunk, 18-36
            os._exit(3)
        return j

    pin_workers(monkeypatch, 2)
    with pytest.raises(EOFError, match="points 18 to 36 exited with code 3$"):
        map_points(fn, list(range(37)))


def test_a_child_error_chains_the_child_traceback(monkeypatch):
    def fn(j):
        if j == 30:  # in the second chunk, 18-36, mapped by the child
            raise ValueError(f"boom at {j}")
        return j

    pin_workers(monkeypatch, 2)
    with pytest.raises(ValueError, match="^boom at 30$") as raised:
        map_points(fn, list(range(37)))
    cause = str(raised.value.__cause__)
    assert "in fn\n" in cause and 'raise ValueError(f"boom at {j}")' in cause
    assert cause.rstrip().endswith('ValueError: boom at 30\n"""')
    assert multiprocessing.active_children() == []
    assert parallel.fork_is_safe()


def test_an_unsafe_fork_takes_no_fork_context(monkeypatch):
    # as on Windows, which has no fork context at all
    def no_fork(method=None):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(parallel, "fork_is_safe", lambda: False)
    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    assert map_points(lambda z: (os.getpid(), z), POINTS) == [(os.getpid(), z) for z in POINTS]


@pytest.mark.parametrize(
    "exc",
    [
        ResonanceError(2j),
        ResonanceError(2j, "pivot 1e-300 at z = 2j"),
        SurrogatePoleError(3j),
        SupportCollisionError(4j),
        GridExhaustedError("every grid point is excluded"),
    ],
    ids=lambda e: type(e).__name__,
)
def test_errors_arrive_whole_from_a_worker(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc) and back.args == exc.args
    assert getattr(back, "z", None) == getattr(exc, "z", None)
