"""The asyncio HTTP front-end: repro-as-a-service.

One process, three moving parts:

* an ``asyncio.start_server`` loop speaking a deliberately small subset
  of HTTP/1.1 (JSON bodies, ``Content-Length`` framing, keep-alive
  connections that carry requests in order) — no framework, no threads
  on the request path;
* the request pipeline: validate → canonicalise → content-key →
  *artifact-store lookup* (a stored result is served without touching a
  worker) → *in-flight dedup* (an identical queued/running job absorbs
  the submission) → *backpressure* (bounded pending set, HTTP 429) →
  dispatch to the supervised :class:`~repro.harness.workers.WorkerPool`
  with the per-job timeout;
* the bookkeeping around it: job records queryable over HTTP (with
  long-poll ``?wait=``), run manifests saved per completed ``bench`` job
  and diffable via ``POST /v1/compare``, store maintenance endpoints
  (``stats``/``entries``/``verify``/``prune``/``delete``), a structured
  JSON-lines request log, and graceful drain on SIGINT/SIGTERM.

Routes (all JSON)::

    GET    /v1/healthz                liveness
    GET    /v1/stats                  server + store counters
    POST   /v1/jobs                   submit one job or {"jobs": [...]}
    GET    /v1/jobs                   list job records
    GET    /v1/jobs/<id>[?wait=S]     one record (id = request key/prefix)
    GET    /v1/cache/stats            store stats snapshot
    GET    /v1/cache/entries[?limit=] stored (key, mtime) pairs
    POST   /v1/cache/prune            {"max_entries": N}
    POST   /v1/cache/verify           {"delete": bool}
    DELETE /v1/cache/<key>            drop one entry
    GET    /v1/runs                   manifests of completed bench jobs
    GET    /v1/runs/<run_id>          one manifest
    POST   /v1/compare                {"run_a", "run_b", "tolerance"}
    POST   /v1/shutdown               drain and stop

Dedup/batching semantics: the *content address is the job id*.  Two
submissions whose canonical requests agree share one record, one
computation and one stored artifact, whether they arrive together (the
second attaches to the in-flight first) or years apart (the second is a
store hit).  ``POST /v1/jobs`` with ``{"jobs": [...]}`` submits a batch
in one round-trip; each element dedups independently.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import json
import time
import urllib.parse
from pathlib import Path

from repro.errors import ServiceError
from repro.harness.compare import compare_manifests, format_comparison
from repro.harness.manifest import RunManifest
from repro.harness.workers import TASK_OK, TASK_TIMEOUT, WorkerPool
from repro.service.jobs import execute_request
from repro.service.log import RequestLog
from repro.service.protocol import (
    describe_request,
    normalize_request,
    request_key,
)
from repro.service.store import ArtifactStore

#: default TCP port: "2008" + CGO, which is taken, so a stable free-ish one
DEFAULT_PORT = 8437

#: job states
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
ERROR = "error"
TIMEOUT = "timeout"

_TERMINAL = (DONE, ERROR, TIMEOUT)

#: cap on one long-poll wait; clients loop for longer waits
MAX_WAIT_S = 60.0
#: a connection that sends no complete request head for this long closes
IDLE_TIMEOUT_S = 30.0


@dataclasses.dataclass
class ServerConfig:
    """Everything ``repro serve`` can set."""

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    workers: int = 2
    #: pending (queued + running) jobs beyond which submits get 429
    queue_limit: int = 64
    #: per-job execution timeout, seconds (None: unbounded)
    job_timeout: float | None = 600.0
    cache_dir: str = ".repro-service/store"
    runs_dir: str = ".repro-service/runs"
    #: artifact-store size bound (entries); None leaves it unbounded
    max_entries: int | None = 65536
    log_path: str | None = None
    #: how long shutdown waits for in-flight jobs before closing the pool
    drain_timeout: float = 60.0
    max_body_bytes: int = 8 << 20


class _HttpError(Exception):
    """Internal: maps straight to an HTTP error response."""

    def __init__(self, status: int, message: str, **extra) -> None:
        self.status = status
        self.payload = {"error": message, **extra}
        super().__init__(message)


@dataclasses.dataclass
class JobRecord:
    """One deduplicated unit of work, addressed by its request key."""

    key: str
    kind: str
    label: str
    request: dict
    status: str
    submitted_utc: str
    finished_utc: str | None = None
    duration_s: float = 0.0
    #: served straight from the artifact store, no worker involved
    cached: bool = False
    #: later submissions absorbed by this record while it was in flight
    dedup_hits: int = 0
    result: dict | None = None
    error: str | None = None
    done: asyncio.Event = dataclasses.field(default_factory=asyncio.Event)

    def to_dict(self, *, include_result: bool = True) -> dict:
        record = {
            "id": self.key,
            "kind": self.kind,
            "label": self.label,
            "status": self.status,
            "submitted_utc": self.submitted_utc,
            "finished_utc": self.finished_utc,
            "duration_s": self.duration_s,
            "cached": self.cached,
            "dedup_hits": self.dedup_hits,
            "error": self.error,
        }
        if include_result:
            record["result"] = self.result
        return record


def _utcnow() -> str:
    return time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())


class ReproService:
    """The server: front-end, dedup/batching, store, worker pool."""

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self.store = ArtifactStore(
            config.cache_dir, max_entries=config.max_entries
        )
        self.runs_dir = Path(config.runs_dir)
        self.log = RequestLog(config.log_path)
        self.records: dict[str, JobRecord] = {}
        self.pool: WorkerPool | None = None
        self.port: int | None = None
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stopped = asyncio.Event()
        self._shutting_down = False
        #: connection handlers, and the writers of those waiting for a
        #: request head; shutdown closes the waiting ones
        self._handlers: set[asyncio.Task] = set()
        self._idle: set[asyncio.StreamWriter] = set()
        self._started_mono = time.monotonic()
        self.stats = {
            "submitted": 0,       # job submissions seen (incl. dupes)
            "executed": 0,        # jobs a worker actually ran to completion
            "served_from_store": 0,
            "deduped": 0,         # submissions absorbed by in-flight jobs
            "rejected": 0,        # 429s
            "timeouts": 0,
            "errors": 0,
        }

    # --- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.runs_dir.mkdir(parents=True, exist_ok=True)
        self.pool = WorkerPool(self.config.workers, name="repro-service")
        self._server = await asyncio.start_server(
            self._handle, host=self.config.host, port=self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_mono = time.monotonic()
        self.log.event(
            "startup",
            host=self.config.host,
            port=self.port,
            workers=self.config.workers,
            queue_limit=self.config.queue_limit,
            store=str(self.store.root),
        )

    async def shutdown(self, *, drain: bool = True) -> None:
        """Stop accepting, drain in-flight jobs, close the pool, then
        close every connection."""
        if self._shutting_down:
            return
        self._shutting_down = True
        if self._server is not None:
            self._server.close()
        pending = [
            record for record in self.records.values()
            if record.status not in _TERMINAL
        ]
        if drain and pending:
            self.log.event("drain", pending=len(pending))
            waits = [record.done.wait() for record in pending]
            try:
                await asyncio.wait_for(
                    asyncio.gather(*waits), self.config.drain_timeout
                )
            except asyncio.TimeoutError:
                self.log.event(
                    "drain-timeout",
                    abandoned=sum(
                        1 for record in pending
                        if record.status not in _TERMINAL
                    ),
                )
        if self.pool is not None:
            self.pool.close()
        # busy connections close after their reply; idle ones would wait
        # out IDLE_TIMEOUT_S, and Server.wait_closed() waits for them all
        # on Python 3.12+
        for writer in self._idle:
            writer.close()
        if self._handlers:
            await asyncio.wait(self._handlers)
        if self._server is not None:
            await self._server.wait_closed()
        self.log.event("shutdown", **self.stats)
        self.log.close()
        self._stopped.set()

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    @property
    def pending_jobs(self) -> int:
        return sum(
            1 for record in self.records.values()
            if record.status not in _TERMINAL
        )

    # --- submission pipeline -------------------------------------------------
    def _submit_one(self, body: dict) -> tuple[JobRecord, bool, bool]:
        """(record, deduped, accepted-new-work) for one submission."""
        if not isinstance(body, dict):
            raise _HttpError(400, "expected a JSON object per job")
        kind = body.get("kind")
        payload = {k: v for k, v in body.items() if k != "kind"}
        try:
            canonical = normalize_request(kind, payload)
        except ServiceError as exc:
            raise _HttpError(exc.status or 400, str(exc)) from None
        key = request_key(kind, canonical)
        self.stats["submitted"] += 1

        record = self.records.get(key)
        if record is not None and record.status not in (ERROR, TIMEOUT):
            # in-flight or completed: the submission coalesces onto it
            if record.status in _TERMINAL:
                # a completed replay is a store-served result — the
                # in-memory record mirrors the artifact-store entry
                self.stats["served_from_store"] += 1
                return record, False, False
            record.dedup_hits += 1
            self.stats["deduped"] += 1
            return record, True, False

        stored = self.store.get_result(key)
        if stored is not None:
            record = JobRecord(
                key=key,
                kind=kind,
                label=describe_request(kind, canonical),
                request=canonical,
                status=DONE,
                submitted_utc=_utcnow(),
                finished_utc=stored.get("completed_utc"),
                cached=True,
                result=stored["result"],
            )
            record.done.set()
            self.records[key] = record
            self.stats["served_from_store"] += 1
            return record, False, False

        if self.pending_jobs >= self.config.queue_limit:
            self.stats["rejected"] += 1
            raise _HttpError(
                429,
                f"queue full ({self.config.queue_limit} pending jobs)",
                retry_after_s=1.0,
            )
        record = JobRecord(
            key=key,
            kind=kind,
            label=describe_request(kind, canonical),
            request=canonical,
            status=QUEUED,
            submitted_utc=_utcnow(),
        )
        self.records[key] = record
        self._dispatch(record)
        return record, False, True

    def _dispatch(self, record: JobRecord) -> None:
        assert self.pool is not None and self._loop is not None
        loop = self._loop

        def mark_running() -> None:  # supervisor thread -> event loop
            loop.call_soon_threadsafe(self._mark_running, record)

        future = self.pool.submit(
            functools.partial(execute_request, cache_root=str(self.store.root)),
            {"kind": record.kind, "request": record.request},
            timeout=self.config.job_timeout,
            on_start=mark_running,
        )
        asyncio.ensure_future(
            self._finish(record, asyncio.wrap_future(future, loop=loop))
        )

    def _mark_running(self, record: JobRecord) -> None:
        if record.status == QUEUED:
            record.status = RUNNING

    async def _finish(self, record: JobRecord, task) -> None:
        result = await task  # a TaskResult; never raises
        record.duration_s = result.duration_s
        record.finished_utc = _utcnow()
        if result.status == TASK_OK:
            record.status = DONE
            record.result = result.value
            self.stats["executed"] += 1
            try:
                self.store.put_result(
                    record.key, record.kind, record.request, record.result
                )
                self._save_manifest(record)
            except OSError as exc:  # store full/unwritable: job still done
                self.log.event("store-error", key=record.key, error=str(exc))
        elif result.status == TASK_TIMEOUT:
            record.status = TIMEOUT
            record.error = result.error
            self.stats["timeouts"] += 1
        else:
            record.status = ERROR
            if result.exception is not None:
                record.error = (
                    f"{type(result.exception).__name__}: {result.exception}"
                )
            else:
                record.error = result.error or "job failed"
            self.stats["errors"] += 1
        self.log.event(
            "job",
            key=record.key,
            kind=record.kind,
            label=record.label,
            status=record.status,
            duration_s=round(record.duration_s, 4),
        )
        record.done.set()

    def _save_manifest(self, record: JobRecord) -> None:
        """Completed bench jobs feed the queryable results API."""
        if record.kind != "bench" or not record.result:
            return
        manifest = record.result.get("manifest")
        if not manifest:
            return
        path = self.runs_dir / f"{manifest['run_id']}.json"
        path.write_text(json.dumps(manifest, indent=2) + "\n")

    # --- HTTP plumbing -------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        """Answer one connection's requests in order until a reply closes
        it, the client does, or it idles for IDLE_TIMEOUT_S."""
        task = asyncio.current_task()
        self._handlers.add(task)
        try:
            while not self._shutting_down:
                self._idle.add(writer)
                try:
                    head = await asyncio.wait_for(
                        reader.readuntil(b"\r\n\r\n"), IDLE_TIMEOUT_S
                    )
                except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                        asyncio.TimeoutError, ConnectionError):
                    return
                finally:
                    self._idle.discard(writer)
                if not await self._answer(head, reader, writer):
                    return
        finally:
            self._handlers.discard(task)
            writer.close()

    async def _answer(self, head: bytes, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> bool:
        """Read the body, route and reply; whether the connection stays
        open for another request."""
        start = time.perf_counter()
        method, path, keep_alive = "?", "?", False
        status, payload = 500, {"error": "internal error"}
        try:
            method, path, query, body, keep_alive = await self._read_request(
                head, reader
            )
            status, payload = await self._route(method, path, query, body)
        except _HttpError as exc:
            status, payload = exc.status, exc.payload
        except (asyncio.IncompleteReadError, ConnectionError):
            return False
        except Exception as exc:  # noqa: BLE001 - must answer something
            status, payload = 500, {"error": f"internal error: {exc}"}
            self.log.event("internal-error", path=path, error=repr(exc))
        keep_alive = keep_alive and status < 400 and not self._shutting_down
        try:
            await self._respond(writer, status, payload, keep_alive)
        except (ConnectionError, OSError):
            keep_alive = False
        self.log.request(
            method, path, status, time.perf_counter() - start
        )
        return keep_alive

    async def _read_request(self, head: bytes,
                            reader: asyncio.StreamReader):
        """Parse a request head, then read its ``Content-Length`` body."""
        line, *lines = head.decode("latin-1").split("\r\n")
        parts = line.split()
        if len(parts) != 3:
            raise _HttpError(400, "malformed request line")
        method, target, version = parts
        headers = {}
        for header in lines:
            name, _, value = header.partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HttpError(400, "bad Content-Length") from None
        if length > self.config.max_body_bytes:
            raise _HttpError(413, "request body too large")
        raw = await reader.readexactly(length) if length else b""
        body = None
        if raw:
            try:
                body = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise _HttpError(400, f"bad JSON body: {exc}") from None
        split = urllib.parse.urlsplit(target)
        query = {
            name: values[-1]
            for name, values in urllib.parse.parse_qs(split.query).items()
        }
        keep_alive = version == "HTTP/1.1" and "close" not in (
            token.strip() for token in
            headers.get("connection", "").lower().split(",")
        )
        return method.upper(), split.path, query, body, keep_alive

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: dict, keep_alive: bool) -> None:
        reason = {
            200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable",
        }.get(status, "OK")
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if status == 429:
            head += f"Retry-After: {int(payload.get('retry_after_s', 1))}\r\n"
        head += (
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # --- routing -------------------------------------------------------------
    async def _route(self, method: str, path: str, query: dict, body):
        if self._shutting_down:
            raise _HttpError(503, "shutting down")
        segments = [seg for seg in path.split("/") if seg]
        if not segments or segments[0] != "v1":
            raise _HttpError(404, f"no such path: {path}")
        tail = segments[1:]
        if tail == ["healthz"] and method == "GET":
            return 200, {"ok": True}
        if tail == ["stats"] and method == "GET":
            return 200, self._stats_payload()
        if tail == ["jobs"]:
            if method == "POST":
                return self._post_jobs(body)
            if method == "GET":
                return 200, self._list_jobs()
            raise _HttpError(405, f"{method} not allowed on /v1/jobs")
        if len(tail) == 2 and tail[0] == "jobs" and method == "GET":
            return await self._get_job(tail[1], query)
        if tail == ["cache", "stats"] and method == "GET":
            return 200, self.store.stats_snapshot()
        if tail == ["cache", "entries"] and method == "GET":
            return 200, self._cache_entries(query)
        if tail == ["cache", "prune"] and method == "POST":
            return 200, self._cache_prune(body)
        if tail == ["cache", "verify"] and method == "POST":
            delete = bool((body or {}).get("delete", False))
            return 200, self.store.verify(delete=delete)
        if len(tail) == 2 and tail[0] == "cache" and method == "DELETE":
            return 200, {"deleted": self.store.delete(tail[1])}
        if tail == ["runs"] and method == "GET":
            return 200, {"runs": self._list_runs()}
        if len(tail) == 2 and tail[0] == "runs" and method == "GET":
            return 200, {"manifest": self._load_run(tail[1])}
        if tail == ["compare"] and method == "POST":
            return 200, self._compare(body or {})
        if tail == ["shutdown"] and method == "POST":
            asyncio.ensure_future(self.shutdown())
            return 202, {"ok": True, "draining": self.pending_jobs}
        raise _HttpError(404, f"no such endpoint: {method} {path}")

    # --- handlers ------------------------------------------------------------
    def _post_jobs(self, body) -> tuple[int, dict]:
        if body is None:
            raise _HttpError(400, "missing JSON body")
        if isinstance(body, dict) and "jobs" in body:
            batch = body["jobs"]
            if not isinstance(batch, list) or not batch:
                raise _HttpError(400, "jobs must be a non-empty list")
            out = []
            for item in batch:
                record, deduped, fresh = self._submit_one(item)
                out.append({
                    "job": record.to_dict(include_result=False),
                    "deduped": deduped,
                    "served_from_store": (
                        not fresh and not deduped and record.status == DONE
                    ),
                })
            return 202, {"jobs": out}
        record, deduped, fresh = self._submit_one(body)
        status = 202 if fresh else 200
        return status, {
            "job": record.to_dict(include_result=record.status in _TERMINAL),
            "deduped": deduped,
            "served_from_store": (
                not fresh and not deduped and record.status == DONE
            ),
        }

    def _list_jobs(self) -> dict:
        records = sorted(
            self.records.values(), key=lambda r: r.submitted_utc
        )
        return {
            "jobs": [r.to_dict(include_result=False) for r in records],
            "pending": self.pending_jobs,
        }

    def _find_record(self, job_id: str) -> JobRecord:
        record = self.records.get(job_id)
        if record is not None:
            return record
        if len(job_id) >= 8:  # accept an unambiguous key prefix
            matches = [
                r for key, r in self.records.items()
                if key.startswith(job_id)
            ]
            if len(matches) == 1:
                return matches[0]
            if len(matches) > 1:
                raise _HttpError(400, f"ambiguous job id prefix {job_id!r}")
        raise _HttpError(404, f"no such job: {job_id}")

    async def _get_job(self, job_id: str, query: dict) -> tuple[int, dict]:
        record = self._find_record(job_id)
        wait = query.get("wait")
        if wait is not None and record.status not in _TERMINAL:
            try:
                wait_s = min(float(wait), MAX_WAIT_S)
            except ValueError:
                raise _HttpError(400, f"bad wait value {wait!r}") from None
            try:
                await asyncio.wait_for(record.done.wait(), wait_s)
            except asyncio.TimeoutError:
                pass  # return the current (still-pending) state
        return 200, {"job": record.to_dict()}

    def _stats_payload(self) -> dict:
        return {
            "uptime_s": round(time.monotonic() - self._started_mono, 3),
            "workers": self.config.workers,
            "queue_limit": self.config.queue_limit,
            "job_timeout_s": self.config.job_timeout,
            "pending": self.pending_jobs,
            "jobs": dict(self.stats),
            "pool": {
                "reaped": self.pool.reaped if self.pool else 0,
                "crashed": self.pool.crashed if self.pool else 0,
            },
            "store": self.store.stats_snapshot(),
        }

    def _cache_entries(self, query: dict) -> dict:
        entries = self.store.entries()
        limit = query.get("limit")
        if limit is not None:
            try:
                entries = entries[: max(0, int(limit))]
            except ValueError:
                raise _HttpError(400, f"bad limit {limit!r}") from None
        return {
            "entries": [
                {"key": key, "mtime": mtime} for key, mtime in entries
            ],
            "total": len(self.store),
        }

    def _cache_prune(self, body) -> dict:
        body = body or {}
        max_entries = body.get("max_entries")
        if not isinstance(max_entries, int) or isinstance(max_entries, bool) \
                or max_entries < 0:
            raise _HttpError(400, "max_entries must be a non-negative int")
        return {"removed": self.store.prune(max_entries)}

    def _list_runs(self) -> list[dict]:
        runs = []
        for path in sorted(self.runs_dir.glob("*.json")):
            try:
                manifest = RunManifest.load(path)
            except Exception:  # noqa: BLE001 - skip foreign files
                continue
            runs.append({
                "run_id": manifest.run_id,
                "suite": manifest.suite,
                "seed": manifest.seed,
                "cells": len(manifest.cells),
                "configs": manifest.configs,
                "fingerprint": manifest.fingerprint(),
            })
        return runs

    def _load_run(self, run_id: str) -> dict:
        path = self.runs_dir / f"{run_id}.json"
        if not path.is_file():
            raise _HttpError(404, f"no such run: {run_id}")
        return json.loads(path.read_text())

    def _compare(self, body: dict) -> dict:
        run_a = body.get("run_a")
        run_b = body.get("run_b")
        if not run_a or not run_b:
            raise _HttpError(400, "compare needs run_a and run_b")
        tolerance = body.get("tolerance", 0.0)
        if isinstance(tolerance, bool) or \
                not isinstance(tolerance, (int, float)) or tolerance < 0:
            raise _HttpError(400, "tolerance must be a non-negative number")
        manifest_a = RunManifest.from_dict(self._load_run(run_a))
        manifest_b = RunManifest.from_dict(self._load_run(run_b))
        comparison = compare_manifests(manifest_a, manifest_b)
        return {
            "run_a": comparison.run_a,
            "run_b": comparison.run_b,
            "matched_cells": comparison.matched_cells,
            "geomeans": {
                config: comparison.geomean(config)
                for config in comparison.deltas
            },
            "overall_geomean": comparison.overall_geomean,
            "regressions": comparison.regressions(float(tolerance)),
            "text": format_comparison(comparison),
        }


async def serve(config: ServerConfig) -> None:
    """Run a service until SIGINT/SIGTERM (the ``repro serve`` body)."""
    import signal

    service = ReproService(config)
    await service.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(
                signum,
                lambda: asyncio.ensure_future(service.shutdown()),
            )
        except NotImplementedError:  # pragma: no cover - non-POSIX
            pass
    print(
        f"repro service on http://{config.host}:{service.port} "
        f"({config.workers} workers, store {service.store.root})",
        flush=True,
    )
    await service.wait_stopped()


class ServiceHandle:
    """A service running on a private event-loop thread (tests, tools)."""

    def __init__(self, service: ReproService, loop, thread) -> None:
        self.service = service
        self.loop = loop
        self.thread = thread

    @property
    def url(self) -> str:
        return f"http://{self.service.config.host}:{self.service.port}"

    def stop(self, timeout: float = 30.0) -> None:
        future = asyncio.run_coroutine_threadsafe(
            self.service.shutdown(), self.loop
        )
        try:
            future.result(timeout)
        finally:
            self.thread.join(timeout)


def serve_in_thread(config: ServerConfig) -> ServiceHandle:
    """Start a service on a fresh daemon thread and wait until it's up."""
    import threading

    service = ReproService(config)
    started = threading.Event()
    holder: dict = {}

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        holder["loop"] = loop

        async def main() -> None:
            await service.start()
            started.set()
            await service.wait_stopped()

        try:
            loop.run_until_complete(main())
        finally:
            loop.close()

    thread = threading.Thread(
        target=run, name="repro-service", daemon=True
    )
    thread.start()
    if not started.wait(30.0):
        raise ServiceError("service failed to start within 30s")
    return ServiceHandle(service, holder["loop"], thread)
