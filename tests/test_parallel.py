import multiprocessing
import os
import pickle
import signal
import threading
import time
import warnings

import numpy as np
import pytest

from conftest import pin_workers, spring_chain
from greedyrat import (
    GridExhaustedError,
    ResonanceError,
    SupportCollisionError,
    SurrogatePoleError,
    parallel,
)
from greedyrat.parallel import map_points

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
    assert parallel._work is None


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
    # the first 3 points are timed here; the other 34 go to 2 workers,
    # bounds 3, 20, 37. Either worker may take either chunk, or both when
    # the other starts late.
    assert parallel.TIMED_CALLS == 3
    assert pids[:3] == [os.getpid()] * 3
    assert pids[3:] == [pids[3]] * 17 + [pids[-1]] * 17
    assert os.getpid() not in pids[3:]


def test_worker_count_weighs_the_pool_against_the_calls(monkeypatch):
    monkeypatch.setattr(parallel, "fork_is_safe", lambda: True)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    # the benchmark chain's 0.7 ms solves: 999 grid points pay for a pool,
    # 99 do not; the test chain's 0.07 ms solves do not at 999 either
    assert parallel._worker_count(999, 0.7e-3) == 2
    assert parallel._worker_count(99, 0.7e-3) == 1
    assert parallel._worker_count(999, 0.07e-3) == 1
    assert parallel._worker_count(0, 1.0) == 1
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)
    assert parallel._worker_count(999, 0.7e-3) == 4
    assert parallel._worker_count(3, 1.0) == 3
    monkeypatch.setattr(parallel, "fork_is_safe", lambda: False)
    assert parallel._worker_count(999, 0.7e-3) == 1


def test_cheap_solves_stay_in_process(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    chain = spring_chain()
    grid = 1j * np.geomspace(1e-2, 3.0, 200)
    out = map_points(lambda z: (os.getpid(), chain.eval_transfer(z)), grid)
    assert {pid for pid, _ in out} == {os.getpid()}
    assert all(np.array_equal(H, chain.eval_transfer(z)) for z, (_, H) in zip(grid, out))


def test_costly_calls_are_pooled(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)

    def slow(k):
        time.sleep(0.02)
        return os.getpid()

    pids = map_points(slow, range(12))
    timed = parallel.TIMED_CALLS
    assert pids[:timed] == [os.getpid()] * timed and os.getpid() not in pids[timed:]


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
            assert os.getpid() not in map_points(lambda z: os.getpid(), POINTS)[3:]
    assert [str(w.message) for w in caught] == []


def test_one_usable_cpu_stays_in_process(monkeypatch):
    pin_workers(monkeypatch, 1)
    assert set(map_points(lambda z: os.getpid(), POINTS)) == {os.getpid()}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("k", [0, 17, 18, 36])
def test_other_errors_propagate(monkeypatch, workers, k):
    # a resonance is no different: what a failed point means is the caller's
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
        assert parallel._work is None
        # a pool that raised has let its threads go, so the next call may fork
        assert parallel.fork_is_safe()


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
