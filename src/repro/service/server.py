"""The HTTP job server: ``http.server`` routes over the scheduler.

Stdlib only — a :class:`ThreadingHTTPServer` whose handler translates a
small JSON API onto :class:`~repro.service.scheduler.JobScheduler`:

========  ======================  =========================================
method    path                    meaning
========  ======================  =========================================
GET       ``/healthz``            liveness + queue/uptime summary
GET       ``/metrics``            Prometheus text exposition
GET       ``/catalog``            the benchmark circuits jobs can target
GET       ``/jobs``               every remembered job (no results)
POST      ``/jobs``               submit ``{"kind": ..., "params": {...}}``
GET       ``/jobs/<id>``          job state + live progress counters
GET       ``/jobs/<id>/result``   the result payload (409 until terminal)
POST      ``/jobs/<id>/cancel``   cooperative cancellation
POST      ``/shutdown``           graceful drain + stop (loopback admin)
========  ======================  =========================================

Error mapping: validation → 400, unknown id → 404, not-done-yet → 409,
queue full → **429 with a ``Retry-After`` header**, shutting down → 503.
Every request is appended to a **structured JSON access log** (one
object per line: timestamp, method, path, status, duration, client,
body size) and observed by the latency histograms under its route
*template* so ``/metrics`` cardinality stays bounded.

:class:`ReproService` bundles runtime + scheduler + HTTP server with
``start()`` / ``stop()`` for embedding (tests boot it on an ephemeral
port in-process); :func:`serve_forever` is the CLI entry that installs
SIGTERM/SIGINT handlers for graceful drain.
"""

from __future__ import annotations

import json
import re
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import IO, Optional, Union

from ..errors import (
    JobNotFoundError,
    JobValidationError,
    QueueFullError,
    ServiceError,
)
from .metrics import ServiceMetrics
from .scheduler import JobScheduler, ServiceRuntime

#: bytes a submission body may not exceed (inline netlists are small)
MAX_BODY_BYTES = 1 << 20


class AccessLog:
    """Thread-safe JSONL access log (file path, stream, or disabled)."""

    def __init__(self, destination: Optional[Union[str, Path, IO[str]]]):
        self._lock = threading.Lock()
        self._owns = False
        if destination is None:
            self._stream: Optional[IO[str]] = None
        elif hasattr(destination, "write"):
            self._stream = destination  # type: ignore[assignment]
        else:
            path = Path(destination)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._stream = open(path, "a", encoding="utf-8")
            self._owns = True

    def write(self, **fields) -> None:
        if self._stream is None:
            return
        record = {"ts": round(time.time(), 6)}
        record.update(fields)
        with self._lock:
            self._stream.write(json.dumps(record) + "\n")
            self._stream.flush()

    def close(self) -> None:
        with self._lock:
            if self._owns and self._stream is not None:
                self._stream.close()
            self._stream = None


class _Handler(BaseHTTPRequestHandler):
    """Routes one request; all state lives on ``self.server``."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    # silence the default stderr chatter; the JSON access log replaces it
    def log_message(self, format, *args):  # noqa: A002 — stdlib signature
        pass

    # ------------------------------------------------------------------
    @property
    def service(self) -> "ReproService":
        return self.server.service  # type: ignore[attr-defined]

    def _reply(
        self,
        status: int,
        payload,
        route: str,
        content_type: str = "application/json",
        headers: Optional[dict] = None,
    ) -> None:
        if isinstance(payload, (dict, list)):
            body = json.dumps(payload, indent=2).encode("utf-8")
        else:
            body = str(payload).encode("utf-8")
        # Account the request *before* the body reaches the client: a
        # client that reacts to this response by scraping /metrics must
        # see this request already counted.
        duration_s = time.perf_counter() - self._t0
        self.service.metrics.observe_request(
            self.command, route, status, duration_s
        )
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, str(value))
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass
        self.service.access_log.write(
            method=self.command,
            path=self.path,
            route=route,
            status=status,
            duration_ms=round(1000 * duration_s, 3),
            bytes=len(body),
            client=self.client_address[0],
        )

    def _error(self, status: int, message: str, route: str,
               headers: Optional[dict] = None) -> None:
        self._reply(status, {"error": message}, route, headers=headers)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise JobValidationError(
                f"request body too large ({length} bytes > {MAX_BODY_BYTES})"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise JobValidationError(f"request body is not JSON: {exc}")
        if not isinstance(payload, dict):
            raise JobValidationError("request body must be a JSON object")
        return payload

    # ------------------------------------------------------------------
    _JOB_ROUTE = re.compile(r"^/jobs/([0-9a-f]+)(/result|/cancel)?$")

    def do_GET(self) -> None:  # noqa: N802 — stdlib naming
        self._t0 = time.perf_counter()
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        service = self.service
        if path == "/healthz":
            scheduler = service.scheduler
            return self._reply(
                200,
                {
                    "status": "ok",
                    "accepting": scheduler._accepting,
                    "queue_depth": scheduler.queue_depth(),
                    "workers": scheduler.workers,
                    "workers_busy": scheduler.busy_count(),
                    "uptime_s": round(time.time() - service.started_at, 3),
                },
                "/healthz",
            )
        if path == "/metrics":
            scheduler = service.scheduler
            text = service.metrics.render(
                telemetry_counters=service.runtime.telemetry.snapshot(),
                queue_depth=scheduler.queue_depth(),
                jobs_by_state=scheduler.counts_by_state(),
                extra_gauges={
                    "repro_workers": float(scheduler.workers),
                    "repro_workers_busy": float(scheduler.busy_count()),
                    "repro_tombstones": float(
                        scheduler.tombstone_count()
                    ),
                },
            )
            return self._reply(
                200, text, "/metrics",
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        if path == "/catalog":
            from ..circuits import catalog

            return self._reply(200, {"circuits": list(catalog())}, "/catalog")
        if path == "/jobs":
            return self._reply(
                200,
                {"jobs": [job.to_api() for job in service.scheduler.jobs()]},
                "/jobs",
            )
        match = self._JOB_ROUTE.match(path)
        if match and match.group(2) in (None, "/result"):
            job_id, tail = match.groups()
            route = "/jobs/{id}" + (tail or "")
            try:
                job = service.scheduler.lookup(job_id)
            except JobNotFoundError as exc:
                return self._error(404, str(exc), route)
            if tail == "/result":
                if not job.done:
                    return self._error(
                        409,
                        f"job {job_id} is {job.state}; result not ready",
                        route,
                    )
                try:
                    view = service.scheduler.api_view(
                        job_id, include_result=True
                    )
                except JobNotFoundError as exc:
                    # pruned AND evicted from the record cache
                    return self._error(404, str(exc), route)
                return self._reply(200, view, route)
            return self._reply(200, job.to_api(), route)
        return self._error(404, f"no such endpoint: {path}", "unknown")

    def do_POST(self) -> None:  # noqa: N802 — stdlib naming
        self._t0 = time.perf_counter()
        path = self.path.split("?", 1)[0].rstrip("/")
        service = self.service
        if path == "/jobs":
            try:
                payload = self._read_json()
                kind = payload.get("kind")
                if not isinstance(kind, str):
                    raise JobValidationError(
                        "submission must carry a string 'kind' field"
                    )
                job = service.scheduler.submit(
                    kind, payload.get("params") or {}
                )
            except JobValidationError as exc:
                return self._error(400, str(exc), "/jobs")
            except QueueFullError as exc:
                return self._error(
                    429, str(exc), "/jobs",
                    headers={"Retry-After": f"{exc.retry_after_s:g}"},
                )
            except ServiceError as exc:
                return self._error(503, str(exc), "/jobs")
            return self._reply(202, job.to_api(), "/jobs")
        match = self._JOB_ROUTE.match(path)
        if match and match.group(2) == "/cancel":
            route = "/jobs/{id}/cancel"
            try:
                job = service.scheduler.cancel(match.group(1))
            except JobNotFoundError as exc:
                return self._error(404, str(exc), route)
            return self._reply(200, job.to_api(), route)
        if path == "/shutdown":
            threading.Thread(
                target=service.stop, kwargs={"drain": True}, daemon=True
            ).start()
            return self._reply(
                202, {"status": "draining"}, "/shutdown"
            )
        return self._error(404, f"no such endpoint: {path}", "unknown")


class ReproService:
    """Runtime + scheduler + HTTP server, bundled for one lifecycle.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (see
        :attr:`port` after construction) — the in-process test path.
    runtime:
        A pre-built :class:`ServiceRuntime`; default constructs one
        with no executor (serial) and no caches.
    queue_limit, job_timeout, retry_after_s, workers, keep_jobs,
    tombstone_ttl:
        Forwarded to :class:`JobScheduler`.
    access_log:
        Path or stream for the JSONL access log (``None`` disables).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        runtime: Optional[ServiceRuntime] = None,
        queue_limit: int = 16,
        job_timeout: Optional[float] = None,
        retry_after_s: float = 1.0,
        workers: int = 1,
        keep_jobs: int = 256,
        tombstone_ttl: float = 900.0,
        access_log: Optional[Union[str, Path, IO[str]]] = None,
    ):
        self.runtime = runtime or ServiceRuntime()
        self.scheduler = JobScheduler(
            self.runtime,
            queue_limit=queue_limit,
            job_timeout=job_timeout,
            retry_after_s=retry_after_s,
            workers=workers,
            keep_jobs=keep_jobs,
            tombstone_ttl=tombstone_ttl,
        )
        self.metrics = ServiceMetrics()
        self.access_log = AccessLog(access_log)
        self.started_at = time.time()
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.service = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        #: whether a serve loop was started, which ``stop()`` must end
        self._serving = False
        self._stopped = threading.Event()

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    def start(self) -> "ReproService":
        """Serve in a background thread (embedding / tests)."""
        self._serving = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self, drain: bool = True, timeout: Optional[float] = None):
        """Graceful stop: drain the scheduler, then close everything.

        Idempotent — signal handlers, ``POST /shutdown`` and test
        teardown may race onto it.
        """
        if self._stopped.is_set():
            return
        self._stopped.set()
        self.scheduler.shutdown(drain=drain, timeout=timeout)
        if self._serving:
            # waits for the serve loop to exit, so only once one started
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self.runtime.close()
        self.access_log.close()

    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Foreground serving with SIGTERM/SIGINT graceful drain."""

        def handle_signal(signum, frame):
            print(
                f"received signal {signum}: draining jobs and shutting "
                "down",
                file=sys.stderr,
            )
            threading.Thread(
                target=self.stop, kwargs={"drain": True}, daemon=True
            ).start()

        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                signal.signal(signum, handle_signal)
            except ValueError:
                pass  # not the main thread
        self._serving = True
        try:
            self._httpd.serve_forever(poll_interval=0.1)
        finally:
            self.stop()
