"""Tests for the supervised worker pool (``repro.harness.workers``).

The pool is the execution substrate shared by ``run_jobs``/``run_suite``
and the service: tasks resolve to :class:`TaskResult` values that never
raise, deadline overruns reap (kill + respawn) the offending worker
without disturbing the rest of the batch, and worker crashes surface as
errors rather than hangs.
"""

import concurrent.futures
import os
import threading
import time

import pytest

from repro.harness import (
    TASK_ERROR,
    TASK_OK,
    TASK_TIMEOUT,
    WorkerPool,
    run_supervised,
)


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom on {x}")


def _sleepy(seconds):
    time.sleep(seconds)
    return seconds


def _die(_x):
    os._exit(17)  # simulate a hard worker crash (segfault-style)


@pytest.fixture
def pool():
    p = WorkerPool(2, name="test-pool")
    yield p
    p.close()


def test_results_come_back_in_submission_order(pool):
    futures = [pool.submit(_square, n) for n in range(8)]
    results = [f.result(30.0) for f in futures]
    assert all(r.status == TASK_OK for r in results)
    assert [r.value for r in results] == [n * n for n in range(8)]


def test_task_exception_is_a_result_not_a_raise(pool):
    ok = pool.submit(_square, 3)
    bad = pool.submit(_boom, 5)
    assert ok.result(30.0).value == 9
    result = bad.result(30.0)
    assert result.status == TASK_ERROR
    assert isinstance(result.exception, ValueError)
    assert "boom on 5" in result.error


def test_deadline_overrun_is_reaped_and_pool_survives(pool):
    slow = pool.submit(_sleepy, 10.0, timeout=0.2)
    result = slow.result(30.0)
    assert result.status == TASK_TIMEOUT
    assert pool.reaped == 1
    # the respawned worker picks up new work
    after = pool.submit(_square, 7).result(30.0)
    assert after.status == TASK_OK and after.value == 49


def test_completed_but_overdue_task_still_counts_as_timeout(pool):
    # strict semantics: duration > timeout resolves as timeout even when
    # the worker finished before the supervisor tick noticed
    result = pool.submit(_sleepy, 0.05, timeout=1e-4).result(30.0)
    assert result.status == TASK_TIMEOUT


def test_a_late_deadline_check_spares_the_worker_that_moved_on():
    """A supervisor tick can see a task's deadline pass only after its
    worker finished it and took the next task; that tick must not kill
    the worker, or the next task is lost and its future never resolves."""
    pool = WorkerPool(1, name="late-tick-pool")
    try:
        assert pool.submit(_square, 3).result(30.0).value == 9  # task 0
        slow = pool.submit(_sleepy, 0.5)  # task 1
        for _ in range(2000):
            with pool._lock:
                if pool._running:
                    (pid,) = pool._running
                    # task 0's start, handled long past its deadline
                    pool._running[pid] = (0, 0.0)
                    break
            time.sleep(0.005)
        else:
            pytest.fail("task 1 never started")
        assert slow.result(10.0).status == TASK_OK
        assert pool.reaped == 0
    finally:
        pool.close()


def test_reaping_overdue_tasks_never_silences_the_pool():
    """Workers killed at their deadline, often right after their "start"
    report, must leave every other worker able to report: each of these
    tasks resolves, as a timeout, with more workers than cores."""
    with WorkerPool(3, name="reap-stress-pool") as pool:
        futures = [
            pool.submit(_sleepy, 0.002, timeout=1e-4) for _ in range(60)
        ]
        # one bound for the whole batch: a silenced pool fails here
        # instead of waiting out every future in turn
        _, unresolved = concurrent.futures.wait(futures, timeout=60.0)
        assert not unresolved
    results = [f.result() for f in futures]
    assert [r.status for r in results] == [TASK_TIMEOUT] * 60


def test_worker_crash_surfaces_as_error_and_respawns(pool):
    crashed = pool.submit(_die, None)
    result = crashed.result(30.0)
    assert result.status == TASK_ERROR
    assert pool.crashed == 1
    after = pool.submit(_square, 6).result(30.0)
    assert after.status == TASK_OK and after.value == 36


def test_on_start_fires_for_executed_tasks(pool):
    started = []
    future = pool.submit(_square, 4, on_start=lambda: started.append(True))
    assert future.result(30.0).value == 16
    deadline = time.monotonic() + 5.0
    while not started and time.monotonic() < deadline:
        time.sleep(0.01)
    assert started


def test_run_supervised_parallel_matches_serial():
    payloads = list(range(6))
    serial = run_supervised(_square, payloads, workers=1)
    parallel = run_supervised(_square, payloads, workers=3)
    assert [r.value for r in serial] == [r.value for r in parallel]
    assert all(r.status == TASK_OK for r in serial + parallel)


def test_run_supervised_serial_captures_exceptions():
    results = run_supervised(_boom, [1], workers=1)
    assert results[0].status == TASK_ERROR
    assert isinstance(results[0].exception, ValueError)


def test_run_supervised_mixed_timeouts_do_not_sink_the_batch():
    results = run_supervised(
        _sleepy, [0.0, 5.0, 0.0], workers=2, timeout=0.5
    )
    assert [r.status for r in results] == [TASK_OK, TASK_TIMEOUT, TASK_OK]


def test_close_is_idempotent():
    pool = WorkerPool(1, name="close-pool")
    assert pool.submit(_square, 2).result(30.0).value == 4
    pool.close()
    pool.close()


class _SlowDict(dict):
    """A worker table whose reads yield the GIL, so a supervisor pass
    over it stays open while ``close`` runs in the main thread."""

    def __getitem__(self, key):
        time.sleep(0.03)
        return super().__getitem__(key)


def test_closing_a_busy_pool_never_raises_in_the_supervisor(monkeypatch):
    raised = []
    monkeypatch.setattr(threading, "excepthook", raised.append)
    for round_index in range(10):
        pool = WorkerPool(2, name="busy-close-pool")
        with pool._lock:
            pool._procs = _SlowDict(pool._procs)
            pool._inboxes = _SlowDict(pool._inboxes)
        # workers still busy for 0-90 ms when close() starts, so its
        # teardown lands at different points of the supervisor's pass
        futures = [pool.submit(_sleepy, 0.01 * round_index)
                   for _ in range(2)]
        pool.close(grace_s=0.2)
        pool._supervisor.join(5.0)
        assert not pool._supervisor.is_alive()
        assert all(f.done() for f in futures)
    assert [f"{a.exc_type.__name__}: {a.exc_value}" for a in raised] == []
