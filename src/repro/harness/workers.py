"""Supervised worker processes with per-task timeouts and reaping.

:class:`WorkerPool` replaces the bare ``ProcessPoolExecutor`` wherever the
harness needs *per-task* failure isolation: a task that exceeds its
timeout gets its worker terminated and replaced (the old executor kept
the runaway process alive and aborted the whole sweep), a worker that
dies mid-task is detected and respawned, and every task resolves to a
:class:`TaskResult` carrying an ``ok``/``timeout``/``error`` status
instead of tearing down its siblings.

The pool is usable from synchronous code (:func:`run_supervised`, the
engine under :func:`repro.harness.pool.run_tasks`) and from asyncio (the
:mod:`repro.service` server wraps the returned
:class:`concurrent.futures.Future` values with ``asyncio.wrap_future``).

Protocol: the supervisor thread hands each task to one idle worker over
a pipe of that worker's own, and the worker reports
``("start", task_id, pid)`` before running it and
``("done", task_id, pid, outcome)`` after it on a second pipe of its own.
Nothing is shared between workers: a worker killed at its deadline, even
right as it reports or waits for its next task, can only break its own
pipes, where a shared queue's lock would stay held and silence every
other worker.  Since the supervisor itself assigns every task, it knows
*which* process owns a late task and can kill exactly that one, and it
attributes the task of a worker that died before its ``start`` report
instead of leaving its future unresolved.  Tasks and results are
pickled, so ``fn``, payloads and results must be picklable (module-level
callables or ``functools.partial`` of one) — the same contract the
process pool already imposed.
"""

from __future__ import annotations

import collections
import concurrent.futures
import itertools
import multiprocessing
import multiprocessing.connection
import os
import pickle
import threading
import time
import traceback
from dataclasses import dataclass

#: supervisor poll interval: bounds timeout-detection latency
_TICK_S = 0.05
#: grace period between SIGTERM and SIGKILL when reaping a worker
_TERM_GRACE_S = 0.5

TASK_OK = "ok"
TASK_TIMEOUT = "timeout"
TASK_ERROR = "error"


@dataclass
class TaskResult:
    """How one submitted task ended.

    ``status`` is one of :data:`TASK_OK` (``value`` holds the return
    value), :data:`TASK_TIMEOUT` (the worker was killed at the deadline)
    or :data:`TASK_ERROR` (``error`` holds the remote traceback text and
    ``exception`` the re-raisable exception object when it pickled).
    """

    status: str
    value: object = None
    error: str | None = None
    exception: BaseException | None = None
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == TASK_OK


def _worker_main(tasks, reports) -> None:
    """Worker process body: run tasks until the ``None`` sentinel."""
    while True:
        try:
            item = tasks.recv()
        except EOFError:  # the pool is gone
            break
        if item is None:
            break
        task_id, fn, payload = item
        pid = os.getpid()
        # CLOCK_MONOTONIC is system-wide on POSIX, so the supervisor can
        # anchor the deadline at the *actual* start, not at whenever it
        # drains this message
        reports.send(("start", task_id, pid, time.monotonic()))
        start = time.perf_counter()
        try:
            value = fn(payload)
            outcome = (True, value, None, time.perf_counter() - start)
        except BaseException as exc:  # noqa: BLE001 - forwarded to caller
            text = traceback.format_exc()
            try:  # an unpicklable exception must not kill the report
                pickle.dumps(exc)
            except Exception:
                exc = None
            outcome = (False, exc, text, time.perf_counter() - start)
        try:
            reports.send(("done", task_id, pid, outcome))
        except Exception:
            # the value itself would not pickle: report the failure instead
            reports.send((
                "done", task_id, pid,
                (False, None, "task result was not picklable",
                 time.perf_counter() - start),
            ))


class WorkerPool:
    """A fixed-size pool of supervised worker processes.

    ``submit`` returns a :class:`concurrent.futures.Future` resolving to a
    :class:`TaskResult`; the future never raises.  A per-task ``timeout``
    (seconds, measured from when a worker *starts* the task) terminates
    and replaces the worker at the deadline, so one runaway job cannot
    wedge the pool or leak a process.  ``on_start`` is invoked from the
    supervisor thread when the task begins executing (the service uses it
    to flip jobs from *queued* to *running*).
    """

    def __init__(self, workers: int, *, name: str = "repro-pool") -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            self._ctx = multiprocessing.get_context()
        self.workers = workers
        self.name = name
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._futures: dict[int, concurrent.futures.Future] = {}
        self._timeouts: dict[int, float | None] = {}
        self._on_start: dict[int, object] = {}
        #: submitted tasks no worker has been handed yet, oldest first
        self._backlog: collections.deque = collections.deque()
        #: pid -> the task handed to that worker and not yet done
        self._assigned: dict[int, int] = {}
        #: pid -> (task_id, deadline or None) for tasks being executed
        self._running: dict[int, tuple[int, float | None]] = {}
        self._procs: dict[int, multiprocessing.Process] = {}
        #: pid -> the write end of that worker's task pipe
        self._inboxes: dict[int, multiprocessing.connection.Connection] = {}
        #: pid -> the read end of that worker's report pipe
        self._reports: dict[int, multiprocessing.connection.Connection] = {}
        self._closed = False
        self.reaped = 0  # workers killed at a deadline (observability)
        self.crashed = 0  # workers that died mid-task
        for _ in range(workers):
            self._spawn()
        self._supervisor = threading.Thread(
            target=self._supervise, name=f"{name}-supervisor", daemon=True
        )
        self._supervisor.start()

    # --- submission ----------------------------------------------------------
    def submit(
        self,
        fn,
        payload,
        *,
        timeout: float | None = None,
        on_start=None,
    ) -> concurrent.futures.Future:
        with self._lock:
            if self._closed:
                raise RuntimeError("pool is closed")
            task_id = next(self._ids)
            future: concurrent.futures.Future = concurrent.futures.Future()
            self._futures[task_id] = future
            self._timeouts[task_id] = timeout
            if on_start is not None:
                self._on_start[task_id] = on_start
            self._backlog.append((task_id, fn, payload))
            self._dispatch()
        return future

    @property
    def pending(self) -> int:
        """Tasks submitted but not yet resolved."""
        with self._lock:
            return len(self._futures)

    # --- supervision ---------------------------------------------------------
    def _spawn(self) -> None:
        task_reader, inbox = self._ctx.Pipe(duplex=False)
        reader, writer = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(task_reader, writer),
            name=f"{self.name}-worker",
            daemon=True,
        )
        proc.start()
        # only the worker holds these ends, so its report pipe reads EOF
        # once it dies, even in the middle of a message
        task_reader.close()
        writer.close()
        self._procs[proc.pid] = proc
        self._inboxes[proc.pid] = inbox
        self._reports[proc.pid] = reader

    def _dispatch(self) -> None:
        """Hand backlogged tasks to idle workers, one task per worker."""
        for pid, inbox in self._inboxes.items():
            if not self._backlog:
                return
            if pid in self._assigned:
                continue
            task_id = self._backlog[0][0]
            try:
                inbox.send(self._backlog[0])
            except OSError:
                continue  # the worker died; _reap_dead respawns it
            except Exception as exc:  # noqa: BLE001 - fn or payload
                self._backlog.popleft()
                self._timeouts.pop(task_id, None)
                self._on_start.pop(task_id, None)
                self._futures.pop(task_id).set_result(TaskResult(
                    TASK_ERROR, exception=exc,
                    error=f"task could not be sent to a worker: {exc!r}",
                ))
                continue
            self._backlog.popleft()
            self._assigned[pid] = task_id

    def _supervise(self) -> None:
        while True:
            with self._lock:
                if self._closed:
                    return
                pipes = list(self._reports.values())
            ready = multiprocessing.connection.wait(pipes, timeout=_TICK_S)
            with self._lock:
                # close() fails every future and takes over the workers
                # under this lock, so a closed pool has nothing to reap
                if self._closed:
                    return
                for pipe in ready:
                    self._drain(pipe)
                self._reap_expired()
                self._reap_dead()
                self._dispatch()

    def _drain(self, pipe) -> None:
        """Handle every message a worker has finished sending."""
        try:
            while pipe.poll():
                self._handle_message(pipe.recv())
        except (EOFError, OSError):
            pass  # the worker died; _reap_dead attributes its task

    def _handle_message(self, message) -> None:
        event, task_id, pid, outcome = message
        if event == "start":
            if task_id not in self._futures:  # already cancelled/reaped
                return
            timeout = self._timeouts.get(task_id)
            deadline = outcome + timeout if timeout else None
            self._running[pid] = (task_id, deadline)
            callback = self._on_start.pop(task_id, None)
            if callback is not None:
                try:
                    callback()
                except Exception:  # pragma: no cover - observer bug
                    pass
            return
        # "done"
        if self._running.get(pid, (None,))[0] == task_id:
            del self._running[pid]
        if self._assigned.get(pid) == task_id:
            del self._assigned[pid]
        future = self._futures.pop(task_id, None)
        timeout = self._timeouts.pop(task_id, None)
        if future is None:  # late result of a task reaped at its deadline
            return
        ok, value, error_text, duration = outcome
        if timeout is not None and duration > timeout:
            # the worker beat the reaper to the finish line, but the task
            # still broke its deadline: enforce the timeout consistently
            # (same outcome whether or not the supervisor's tick won)
            future.set_result(TaskResult(
                TASK_TIMEOUT,
                error=f"task exceeded the {timeout}s timeout",
                duration_s=duration,
            ))
            return
        if ok:
            result = TaskResult(TASK_OK, value=value, duration_s=duration)
        else:
            result = TaskResult(
                TASK_ERROR,
                exception=value,
                error=error_text,
                duration_s=duration,
            )
        future.set_result(result)

    def _reap_expired(self) -> None:
        now = time.monotonic()
        for pid in list(self._running):
            task_id, deadline = self._running[pid]
            if deadline is None or now < deadline:
                continue
            del self._running[pid]
            if self._assigned.get(pid) != task_id:
                # the worker finished the task before this late tick and
                # its "done" message resolved it; killing the worker now
                # would lose the next task it was handed
                continue
            del self._assigned[pid]
            # _reap_dead respawns the worker within this same tick
            _terminate(self._procs[pid])
            self.reaped += 1
            future = self._futures.pop(task_id, None)
            timeout = self._timeouts.pop(task_id, None)
            self._on_start.pop(task_id, None)
            if future is not None:
                future.set_result(TaskResult(
                    TASK_TIMEOUT,
                    error=f"task exceeded the {timeout}s timeout",
                    duration_s=timeout or 0.0,
                ))

    def _reap_dead(self) -> None:
        for pid in list(self._procs):
            proc = self._procs[pid]
            if proc.is_alive():
                continue
            del self._procs[pid]
            self._inboxes.pop(pid).close()
            # reports the worker sent before it died come first
            pipe = self._reports.pop(pid)
            self._drain(pipe)
            pipe.close()
            self._running.pop(pid, None)
            # set even when the worker died before its "start" report
            task_id = self._assigned.pop(pid, None)
            if task_id is not None and task_id in self._futures:
                self.crashed += 1
                future = self._futures.pop(task_id)
                self._timeouts.pop(task_id, None)
                self._on_start.pop(task_id, None)
                future.set_result(TaskResult(
                    TASK_ERROR,
                    error=(
                        "worker died while executing the task "
                        f"(exit code {proc.exitcode})"
                    ),
                ))
            self._spawn()

    # --- teardown ------------------------------------------------------------
    def close(self, *, grace_s: float = 1.0) -> None:
        """Stop the pool: fail unresolved futures, reap every worker.

        Callers that care about in-flight work must wait on their futures
        *before* closing; ``close`` is deliberately prompt so a service
        shutdown cannot hang behind a stuck task.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for task_id, future in list(self._futures.items()):
                future.set_result(TaskResult(
                    TASK_ERROR, error="worker pool closed"
                ))
            self._futures.clear()
            self._timeouts.clear()
            self._on_start.clear()
            self._backlog.clear()
            self._assigned.clear()
            self._running.clear()
            procs = list(self._procs.values())
            self._procs.clear()
            inboxes = list(self._inboxes.values())
            self._inboxes.clear()
            pipes = list(self._reports.values())
            self._reports.clear()
        for inbox in inboxes:
            try:
                inbox.send(None)
            except OSError:
                pass  # that worker is already gone
        deadline = time.monotonic() + grace_s
        for proc in procs:
            proc.join(max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                _terminate(proc)
        self._supervisor.join(grace_s + _TERM_GRACE_S)
        for pipe in inboxes + pipes:
            pipe.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _terminate(proc) -> None:
    """SIGTERM ``proc``, escalating to SIGKILL after a grace period."""
    proc.terminate()
    proc.join(_TERM_GRACE_S)
    if proc.is_alive():  # pragma: no cover - SIGTERM ignored
        proc.kill()
        proc.join(_TERM_GRACE_S)


def run_supervised(
    fn,
    payloads: list,
    *,
    workers: int,
    timeout: float | None = None,
) -> list[TaskResult]:
    """Map ``fn`` over ``payloads`` on a temporary pool, in order.

    Every payload yields a :class:`TaskResult` — a timeout or worker
    crash surfaces as that task's status while the rest of the batch
    completes normally (the behaviour the sweep-level timeout fix needs).
    """
    if workers <= 1:
        results = []
        for payload in payloads:
            start = time.perf_counter()
            try:
                value = fn(payload)
                results.append(TaskResult(
                    TASK_OK, value=value,
                    duration_s=time.perf_counter() - start,
                ))
            except BaseException as exc:  # noqa: BLE001 - recorded
                results.append(TaskResult(
                    TASK_ERROR,
                    exception=exc,
                    error=traceback.format_exc(),
                    duration_s=time.perf_counter() - start,
                ))
        return results
    with WorkerPool(workers) as pool:
        futures = [
            pool.submit(fn, payload, timeout=timeout) for payload in payloads
        ]
        return [future.result() for future in futures]
