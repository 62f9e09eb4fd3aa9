"""A small stdlib client for the repro service.

Used by the ``repro submit`` / ``repro status`` CLI, the test-suite and
CI; anything that speaks JSON-over-HTTP works equally well (``curl``
against the routes in :mod:`repro.service.server` is supported usage).
Built on :mod:`http.client` so the client side, like the server side,
needs nothing outside the standard library.

Each thread keeps one persistent connection per client.  A reused
connection that the server has meanwhile closed fails before any
response arrives; the request is then resent once on a new connection,
which is safe because every route is idempotent (a resubmission dedups
or is served from the store).

Error contract: any response with status >= 400 raises
:class:`~repro.errors.ServiceError` carrying the HTTP status and the
server's ``error`` message; transport failures raise ``ServiceError``
with ``status=None``.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse

from repro.errors import ServiceError

#: job states mirrored from the server
_TERMINAL = ("done", "error", "timeout")


class ServiceClient:
    """One service endpoint; one keep-alive connection per thread."""

    def __init__(self, base_url: str, *, timeout: float = 120.0) -> None:
        split = urllib.parse.urlsplit(base_url)
        if split.scheme not in ("http", ""):
            raise ServiceError(
                f"unsupported scheme {split.scheme!r} (http only)"
            )
        netloc = split.netloc or split.path  # accept "host:port" shorthand
        host, _, port = netloc.partition(":")
        self.host = host or "127.0.0.1"
        self.port = int(port) if port else 80
        self.timeout = timeout
        self._local = threading.local()

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _request(self, method: str, path: str, body: dict | None = None,
                 *, timeout: float | None = None) -> dict:
        payload = json.dumps(body).encode("utf-8") if body is not None \
            else None
        headers = {"Content-Type": "application/json"} if payload else {}
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = http.client.HTTPConnection(
                self.host, self.port
            )
        conn.timeout = timeout or self.timeout
        reused = conn.sock is not None
        if reused:
            conn.sock.settimeout(conn.timeout)
        try:
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
            except (ConnectionResetError, BrokenPipeError):
                # includes RemoteDisconnected: the server closed the
                # connection since its last reply; resend on a new one
                conn.close()
                if not reused:
                    raise
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
            # a "Connection: close" reply leaves conn unconnected, so the
            # next request opens a new connection
            raw = response.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise ServiceError(
                f"service unreachable at {self.base_url}: {exc}"
            ) from None
        try:
            data = json.loads(raw) if raw else {}
        except json.JSONDecodeError:
            raise ServiceError(
                f"non-JSON response from {path} "
                f"(status {response.status})",
                status=response.status,
            ) from None
        if response.status >= 400:
            raise ServiceError(
                data.get("error", f"HTTP {response.status} on {path}"),
                status=response.status,
            )
        return data

    # --- jobs ----------------------------------------------------------------
    def submit(self, kind: str, **request) -> dict:
        """Submit one job; returns ``{"job": ..., "deduped": ...}``."""
        return self._request("POST", "/v1/jobs", {"kind": kind, **request})

    def submit_batch(self, jobs: list[dict]) -> list[dict]:
        """Submit many jobs in one round-trip; each dedups independently."""
        return self._request("POST", "/v1/jobs", {"jobs": jobs})["jobs"]

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}")["job"]

    def jobs(self) -> dict:
        return self._request("GET", "/v1/jobs")

    def wait(self, job_id: str, *, timeout: float = 600.0,
             poll_s: float = 30.0) -> dict:
        """Long-poll until the job is terminal; returns the final record.

        Raises :class:`ServiceError` if ``timeout`` elapses first; a job
        that *finished* with status ``error``/``timeout`` is returned,
        not raised — callers inspect ``record["status"]``.
        """
        deadline = time.monotonic() + timeout
        while True:
            budget = deadline - time.monotonic()
            if budget <= 0:
                raise ServiceError(
                    f"timed out after {timeout}s waiting for job {job_id}"
                )
            wait_s = max(0.1, min(poll_s, budget))
            record = self._request(
                "GET", f"/v1/jobs/{job_id}?wait={wait_s:g}",
                timeout=wait_s + self.timeout,
            )["job"]
            if record["status"] in _TERMINAL:
                return record

    # --- server / store ------------------------------------------------------
    def health(self) -> bool:
        try:
            return bool(self._request("GET", "/v1/healthz").get("ok"))
        except ServiceError:
            return False

    def wait_until_ready(self, *, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.health():
                return
            time.sleep(0.05)
        raise ServiceError(
            f"service at {self.base_url} not ready after {timeout}s"
        )

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def cache_stats(self) -> dict:
        return self._request("GET", "/v1/cache/stats")

    def cache_entries(self, *, limit: int | None = None) -> dict:
        path = "/v1/cache/entries"
        if limit is not None:
            path += f"?limit={limit}"
        return self._request("GET", path)

    def cache_prune(self, max_entries: int) -> int:
        return self._request(
            "POST", "/v1/cache/prune", {"max_entries": max_entries}
        )["removed"]

    def cache_verify(self, *, delete: bool = False) -> dict:
        return self._request("POST", "/v1/cache/verify", {"delete": delete})

    def cache_delete(self, key: str) -> bool:
        return self._request("DELETE", f"/v1/cache/{key}")["deleted"]

    # --- results -------------------------------------------------------------
    def runs(self) -> list[dict]:
        return self._request("GET", "/v1/runs")["runs"]

    def run(self, run_id: str) -> dict:
        return self._request("GET", f"/v1/runs/{run_id}")["manifest"]

    def compare(self, run_a: str, run_b: str, *,
                tolerance: float = 0.0) -> dict:
        return self._request("POST", "/v1/compare", {
            "run_a": run_a, "run_b": run_b, "tolerance": tolerance,
        })

    def shutdown(self) -> dict:
        return self._request("POST", "/v1/shutdown", {})
