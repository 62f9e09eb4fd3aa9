"""End-to-end tests for the service HTTP front-end.

Everything here goes over a real socket: a server on a private event-loop
thread, the stdlib :class:`~repro.service.client.ServiceClient` on the
other end.  Covers dedup of simultaneous identical submissions,
backpressure (429), store maintenance over HTTP, the results API,
store-served replays across a server restart, and the connection model
(keep-alive, when a connection closes, shutdown with idle connections
open, the client's one resend), the last over raw sockets where framing
matters.
"""

import gc
import json
import multiprocessing
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ServiceError
from repro.service import ServerConfig, ServiceClient, serve_in_thread
from repro.service import server as server_module

COPY_ADD = (
    Path(__file__).resolve().parent.parent
    / "examples" / "loops" / "copy_add.s"
).read_text()


def make_config(tmp_path, **overrides) -> ServerConfig:
    defaults = dict(
        port=0,
        workers=2,
        cache_dir=str(tmp_path / "store"),
        runs_dir=str(tmp_path / "runs"),
        log_path=str(tmp_path / "service.log.jsonl"),
    )
    defaults.update(overrides)
    return ServerConfig(**defaults)


@pytest.fixture
def service(tmp_path):
    handle = serve_in_thread(make_config(tmp_path))
    client = ServiceClient(handle.url)
    client.wait_until_ready()
    yield client
    handle.stop()


# --- basic job lifecycle ------------------------------------------------------

def test_compile_job_roundtrip(service):
    response = service.submit("compile", loop=COPY_ADD)
    job = response["job"]
    assert job["status"] in ("queued", "running")
    record = service.wait(job["id"], timeout=60)
    assert record["status"] == "done"
    result = record["result"]
    assert result["loop"] == "copy_add"
    assert result["ii"] >= 1
    assert "II=" in result["summary"]


def test_invalid_request_is_a_400_not_a_job(service):
    with pytest.raises(ServiceError) as exc:
        service.submit("bench", suite="micro", workers=8)
    assert exc.value.status == 400
    assert "workers" in str(exc.value)
    assert service.stats()["jobs"]["executed"] == 0


def test_unknown_job_is_a_404(service):
    with pytest.raises(ServiceError) as exc:
        service.job("f" * 64)
    assert exc.value.status == 404


def test_job_lookup_accepts_unique_prefix(service):
    job = service.submit("compile", loop=COPY_ADD)["job"]
    service.wait(job["id"], timeout=60)
    assert service.job(job["id"][:12])["id"] == job["id"]


# --- dedup --------------------------------------------------------------------

def test_simultaneous_identical_submissions_coalesce(service):
    first = service.submit("bench", suite="micro")
    second = service.submit("bench", suite="micro")  # in-flight duplicate
    assert second["job"]["id"] == first["job"]["id"]
    assert second["deduped"] is True
    record = service.wait(first["job"]["id"], timeout=120)
    assert record["status"] == "done"
    assert record["dedup_hits"] == 1
    stats = service.stats()["jobs"]
    assert stats["submitted"] == 2
    assert stats["executed"] == 1
    assert stats["deduped"] == 1


def test_textually_different_equal_requests_share_one_job(service):
    a = service.submit("bench", suite="micro")
    b = service.submit("bench", suite="micro", configs=["hlo"], seed=2008)
    assert a["job"]["id"] == b["job"]["id"]
    service.wait(a["job"]["id"], timeout=120)


def test_batch_submission_dedups_within_the_batch(service):
    responses = service.submit_batch([
        {"kind": "bench", "suite": "micro"},
        {"kind": "bench", "suite": "micro"},
    ])
    assert responses[0]["job"]["id"] == responses[1]["job"]["id"]
    assert responses[1]["deduped"] is True
    service.wait(responses[0]["job"]["id"], timeout=120)


# --- backpressure -------------------------------------------------------------

def test_queue_overflow_is_a_429(tmp_path):
    handle = serve_in_thread(
        make_config(tmp_path, workers=1, queue_limit=1)
    )
    client = ServiceClient(handle.url)
    client.wait_until_ready()
    try:
        first = client.submit("bench", suite="micro")
        with pytest.raises(ServiceError) as exc:
            client.submit("bench", suite="micro", seed=7)  # distinct work
        assert exc.value.status == 429
        # a duplicate of the in-flight job still coalesces, never 429s
        dup = client.submit("bench", suite="micro")
        assert dup["deduped"] is True
        record = client.wait(first["job"]["id"], timeout=120)
        assert record["status"] == "done"
        assert client.stats()["jobs"]["rejected"] == 1
        # with the queue drained the rejected request goes through
        retry = client.submit("bench", suite="micro", seed=7)
        assert client.wait(retry["job"]["id"], timeout=120)["status"] == "done"
    finally:
        handle.stop()


# --- store over HTTP ----------------------------------------------------------

def test_cache_endpoints_roundtrip(service):
    job = service.submit("compile", loop=COPY_ADD)["job"]
    service.wait(job["id"], timeout=60)
    stats = service.cache_stats()
    assert stats["entries"] >= 1
    listing = service.cache_entries()
    assert listing["total"] == stats["entries"]
    assert any(e["key"] == job["id"] for e in listing["entries"])
    report = service.cache_verify()
    assert report["checked"] == stats["entries"]
    assert report["corrupt"] == []
    assert service.cache_delete(job["id"]) is True
    assert service.cache_delete(job["id"]) is False
    assert service.cache_prune(0) >= 0


def test_restarted_server_serves_results_from_the_shared_store(tmp_path):
    handle = serve_in_thread(make_config(tmp_path))
    client = ServiceClient(handle.url)
    client.wait_until_ready()
    job = client.submit("bench", suite="micro")["job"]
    first = client.wait(job["id"], timeout=120)
    assert client.stats()["jobs"]["executed"] == 1
    handle.stop()

    handle = serve_in_thread(make_config(tmp_path))
    client = ServiceClient(handle.url)
    client.wait_until_ready()
    try:
        replay = client.submit("bench", suite="micro")
        assert replay["job"]["status"] == "done"  # immediately terminal
        assert replay["job"]["cached"] is True
        assert replay["job"]["result"] == first["result"]
        stats = client.stats()["jobs"]
        assert stats["executed"] == 0
        assert stats["served_from_store"] == 1
    finally:
        handle.stop()


# --- results API --------------------------------------------------------------

def test_runs_and_compare_over_http(service):
    a = service.submit("bench", suite="micro")["job"]
    b = service.submit("bench", suite="micro", seed=7)["job"]
    service.wait(a["id"], timeout=120)
    service.wait(b["id"], timeout=120)
    runs = service.runs()
    assert len(runs) == 2
    assert {run["suite"] for run in runs} == {"micro"}
    manifest = service.run(runs[0]["run_id"])
    assert manifest["suite"] == "micro"
    assert manifest["cells"]
    comparison = service.compare(runs[0]["run_id"], runs[1]["run_id"])
    assert comparison["matched_cells"] > 0
    assert "text" in comparison


# --- observability ------------------------------------------------------------

def test_request_log_is_structured_jsonl(tmp_path):
    import json

    handle = serve_in_thread(make_config(tmp_path))
    client = ServiceClient(handle.url)
    client.wait_until_ready()
    job = client.submit("compile", loop=COPY_ADD)["job"]
    client.wait(job["id"], timeout=60)
    handle.stop()

    lines = [
        json.loads(line) for line in
        (tmp_path / "service.log.jsonl").read_text().splitlines()
    ]
    events = [line["event"] for line in lines]
    assert "startup" in events
    assert "job" in events
    assert "shutdown" in events
    http = [line for line in lines if line["event"] == "http"]
    assert any(line["path"] == "/v1/jobs" and line["status"] == 202
               for line in http)
    job_lines = [line for line in lines if line["event"] == "job"]
    assert job_lines[0]["status"] == "done"
    assert job_lines[0]["key"] == job["id"]


def test_stats_exposes_pool_and_store_health(service):
    stats = service.stats()
    assert stats["workers"] == 2
    assert stats["pool"] == {"reaped": 0, "crashed": 0}
    assert stats["store"]["root"].endswith("store")
    assert service.health() is True


# --- connections --------------------------------------------------------------

def _connect(handle) -> socket.socket:
    return socket.create_connection(
        (handle.service.config.host, handle.service.port), timeout=5.0
    )


def _read_response(stream) -> tuple[int, dict, dict]:
    """(status, headers, JSON body) of the next response on ``stream``."""
    status = int(stream.readline().split()[1])
    headers = {}
    while (line := stream.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = json.loads(stream.read(int(headers["content-length"])))
    return status, headers, body


def _get(path: str, *, version: str = "HTTP/1.1", extra: str = "") -> bytes:
    return f"GET {path} {version}\r\nHost: x\r\n{extra}\r\n".encode()


@pytest.fixture
def handle(tmp_path):
    handle = serve_in_thread(make_config(tmp_path))
    yield handle
    handle.stop()


def test_two_requests_share_one_connection(handle):
    with _connect(handle) as sock, sock.makefile("rb") as stream:
        sock.sendall(_get("/v1/healthz"))
        status, headers, body = _read_response(stream)
        assert (status, body) == (200, {"ok": True})
        assert headers["connection"] == "keep-alive"
        sock.sendall(_get("/v1/stats"))
        status, headers, body = _read_response(stream)
        assert status == 200 and body["workers"] == 2
        assert headers["connection"] == "keep-alive"


def test_pipelined_requests_are_answered_in_order(handle):
    with _connect(handle) as sock, sock.makefile("rb") as stream:
        sock.sendall(_get("/v1/stats") + _get("/v1/healthz"))
        assert "uptime_s" in _read_response(stream)[2]
        assert _read_response(stream)[2] == {"ok": True}


@pytest.mark.parametrize("request_bytes", [
    _get("/v1/healthz", version="HTTP/1.0"),
    _get("/v1/healthz", extra="Connection: close\r\n"),
], ids=["http-1.0", "connection-close"])
def test_close_requests_get_a_closing_reply(handle, request_bytes):
    with _connect(handle) as sock, sock.makefile("rb") as stream:
        sock.sendall(request_bytes)
        status, headers, _ = _read_response(stream)
        assert status == 200
        assert headers["connection"] == "close"
        assert stream.read() == b""  # EOF


@pytest.mark.parametrize("request_bytes, status", [
    (b"NONSENSE\r\n\r\n", 400),
    (b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n", 413),
], ids=["malformed", "too-large"])
def test_error_replies_close_the_connection(handle, request_bytes, status):
    with _connect(handle) as sock, sock.makefile("rb") as stream:
        sock.sendall(request_bytes)
        got, headers, _ = _read_response(stream)
        assert got == status
        assert headers["connection"] == "close"
        assert stream.read() == b""  # EOF


def test_stop_closes_idle_keep_alive_connections(tmp_path, caplog):
    before = {p.pid for p in multiprocessing.active_children()}
    handle = serve_in_thread(make_config(tmp_path))
    workers = {p.pid for p in multiprocessing.active_children()} - before
    assert len(workers) == 2
    with _connect(handle) as sock, sock.makefile("rb") as stream:
        sock.sendall(_get("/v1/healthz"))
        assert _read_response(stream)[1]["connection"] == "keep-alive"
        start = time.monotonic()
        handle.stop()
        assert time.monotonic() - start < server_module.IDLE_TIMEOUT_S / 6
        assert stream.read() == b""  # the server hung up
    alive = {p.pid for p in multiprocessing.active_children()}
    assert not workers & alive
    assert not handle.thread.is_alive()
    del handle  # with its closed loop, a pending handler task is garbage
    gc.collect()
    assert "Task was destroyed" not in caplog.text


def test_client_recovers_after_the_server_closes_its_connection(service):
    assert service.health() is True
    with pytest.raises(ServiceError) as exc:
        service.submit("bench", suite="micro", workers=8)
    assert exc.value.status == 400  # a closing reply
    assert service.health() is True


def test_client_resends_once_on_a_connection_closed_while_idle(
        tmp_path, monkeypatch):
    monkeypatch.setattr(server_module, "IDLE_TIMEOUT_S", 0.2)
    handle = serve_in_thread(make_config(tmp_path))
    try:
        client = ServiceClient(handle.url)
        assert client.health() is True
        time.sleep(0.6)  # the server times the idle connection out
        assert client.stats()["jobs"]["submitted"] == 0
    finally:
        handle.stop()


def test_one_client_shared_by_threads(service):
    names = [f"copy_add_{i}" for i in range(40)]
    results: dict[str, dict] = {}

    def run(mine: list[str]) -> None:
        for name in mine:
            loop = COPY_ADD.replace("loop copy_add", f"loop {name}")
            job = service.submit("compile", loop=loop)["job"]
            results[name] = service.wait(job["id"], timeout=120)

    threads = [
        threading.Thread(target=run, args=(names[i::4],)) for i in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert sorted(results) == sorted(names)
    for name, record in results.items():
        assert record["status"] == "done"
        assert record["result"]["loop"] == name
    assert service.stats()["jobs"]["executed"] == 40
