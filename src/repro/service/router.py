"""Replica routing for the repro job service (``repro route``).

One `repro serve` process scales to N workers (PR 7); this module
scales to N *processes* — replicas — behind one thin, stdlib-only HTTP
balancer.  The technique is embarrassingly parallel across
(circuit × configuration × fault) jobs, and every job is
content-addressed, so the router's one real decision is *placement*:

:class:`HashRing`
    Consistent hashing over the replica set, keyed by the job's
    content key (:func:`~repro.service.jobs.job_key`).  Identical
    submissions always land on the same replica — the one whose
    job-record and unit caches are warm for exactly that work — and
    adding or removing a replica only remaps the keys that hashed to
    it, not the whole fleet.

:class:`ReplicaRegistry`
    The replica set: a static ``--replica URL`` list with
    ``/healthz``-driven liveness.  A replica that refuses connections
    is marked dead (submissions re-hash to the next ring node — the
    failover path) and a background probe revives it when its
    ``/healthz`` answers again.

:class:`RouterService`
    The balancer itself, speaking the same API as a single server so
    :class:`~repro.service.client.ServiceClient` needs no changes:

    * ``POST /jobs`` validates locally (a malformed payload never
      touches a replica), hashes the job key, and proxies to the ring
      node, failing over along the ring past dead replicas;
    * ``GET /jobs/<id>``, ``GET /jobs/<id>/result`` and
      ``POST /jobs/<id>/cancel`` go to the replica the router
      remembers accepting the job — and otherwise **fan out** across
      replicas, so a client polling the router (or a job submitted
      behind the router's back) gets the right answer wherever the
      job lives;
    * ``GET /healthz`` and ``GET /metrics`` aggregate the fleet:
      per-replica liveness, summed campaign counters, and the
      router's own series (``repro_router_jobs_routed_total``,
      ``repro_router_ring_hits_total``, ``repro_router_failovers_total``,
      ``repro_router_cross_lookups_total``).

The router holds no job state beyond the id→replica map, so it can
restart freely: lookups for jobs it never saw simply take the fan-out
path.  Replicas may share a ``--cache-dir`` (safe since PR 7) or keep
private caches — the ring keeps each replica's private cache warm for
its own key range either way.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import re
import signal
import sys
import threading
import time
import urllib.error
import urllib.request
from collections import OrderedDict
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, IO, List, Optional, Sequence, Tuple, Union

from ..errors import JobValidationError, ServiceError
from .jobs import job_key, normalize_params
from .metrics import ServiceMetrics, aggregate_metrics
from .server import MAX_BODY_BYTES, AccessLog


def _hash(value: str) -> int:
    """Stable 64-bit ring position of an arbitrary string."""
    digest = hashlib.sha256(value.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Consistent-hash ring over replica URLs.

    Each node contributes ``vnodes`` virtual points so the key space
    splits evenly even for two or three replicas.  The ring is built
    once from the full (static) replica list; liveness is handled by
    the *caller* walking :meth:`preference` past dead nodes, so a
    replica's key range comes straight back to it on revival.
    """

    def __init__(self, nodes: Sequence[str], vnodes: int = 64):
        if not nodes:
            raise ServiceError("a hash ring needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise ServiceError(f"duplicate ring nodes in {list(nodes)}")
        self.nodes = tuple(nodes)
        self.vnodes = vnodes
        points: List[Tuple[int, str]] = []
        for node in self.nodes:
            for index in range(vnodes):
                points.append((_hash(f"{node}#{index}"), node))
        points.sort()
        self._points = points
        self._hashes = [point for point, _ in points]

    def primary(self, key: str) -> str:
        """The node a key belongs to when every replica is healthy."""
        return self.preference(key)[0]

    def preference(self, key: str) -> List[str]:
        """Every node, in ring-walk (failover) order for ``key``.

        The first entry is the primary; each subsequent entry is the
        next *distinct* node clockwise — the re-hash target when its
        predecessors are dead.
        """
        start = bisect.bisect_left(self._hashes, _hash(key))
        order: List[str] = []
        seen = set()
        for offset in range(len(self._points)):
            _, node = self._points[(start + offset) % len(self._points)]
            if node not in seen:
                seen.add(node)
                order.append(node)
                if len(order) == len(self.nodes):
                    break
        return order


@dataclass
class Replica:
    """One replica's registry entry (mutated under the registry lock)."""

    url: str
    alive: bool = True
    last_error: Optional[str] = None
    last_probe: float = 0.0
    health: dict = field(default_factory=dict)

    def to_api(self) -> dict:
        return {
            "url": self.url,
            "alive": self.alive,
            "last_error": self.last_error,
            "workers": self.health.get("workers"),
            "workers_busy": self.health.get("workers_busy"),
            "queue_depth": self.health.get("queue_depth"),
        }


class ReplicaRegistry:
    """Static replica list with ``/healthz``-driven liveness.

    Liveness changes come from two directions: the periodic
    :meth:`probe_all` (run by the router's background thread) and the
    hot path (:meth:`mark_dead` on a connection failure,
    :meth:`mark_alive` on any successful proxy), so a dead replica is
    noticed at the first failed submission, not the next probe tick.
    """

    def __init__(self, urls: Sequence[str], probe_timeout: float = 2.0):
        cleaned = [url.rstrip("/") for url in urls]
        if not cleaned:
            raise ServiceError("the registry needs at least one replica URL")
        if len(set(cleaned)) != len(cleaned):
            raise ServiceError(f"duplicate replica URLs in {cleaned}")
        self.probe_timeout = probe_timeout
        self._lock = threading.Lock()
        self._replicas: "OrderedDict[str, Replica]" = OrderedDict(
            (url, Replica(url)) for url in cleaned
        )

    @property
    def urls(self) -> List[str]:
        return list(self._replicas)

    def alive_urls(self) -> List[str]:
        with self._lock:
            return [r.url for r in self._replicas.values() if r.alive]

    def is_alive(self, url: str) -> bool:
        with self._lock:
            replica = self._replicas.get(url)
            return bool(replica and replica.alive)

    def mark_dead(self, url: str, error: Optional[str] = None) -> None:
        with self._lock:
            replica = self._replicas.get(url)
            if replica is not None:
                replica.alive = False
                replica.last_error = error

    def mark_alive(self, url: str) -> None:
        with self._lock:
            replica = self._replicas.get(url)
            if replica is not None:
                replica.alive = True
                replica.last_error = None

    def probe(self, url: str) -> bool:
        """One ``GET /healthz``; updates and returns liveness."""
        request = urllib.request.Request(url + "/healthz", method="GET")
        try:
            with urllib.request.urlopen(
                request, timeout=self.probe_timeout
            ) as response:
                health = json.loads(response.read().decode("utf-8"))
            ok = health.get("status") == "ok"
            error = None if ok else f"status {health.get('status')!r}"
        except (urllib.error.URLError, OSError, ValueError) as exc:
            ok, health = False, {}
            reason = getattr(exc, "reason", exc)
            error = f"{type(exc).__name__}: {reason}"
        with self._lock:
            replica = self._replicas.get(url)
            if replica is not None:
                replica.alive = ok
                replica.last_error = error
                replica.last_probe = time.monotonic()
                if health:
                    replica.health = health
        return ok

    def probe_all(self) -> int:
        """Probe every replica; returns how many are alive."""
        return sum(1 for url in self.urls if self.probe(url))

    def snapshot(self) -> List[dict]:
        with self._lock:
            return [replica.to_api() for replica in self._replicas.values()]


class _ReplicaUnavailable(ServiceError):
    """A replica could not be reached (transport-level, not HTTP)."""


_JOB_ROUTE = re.compile(r"^/jobs/([0-9a-f]+)(/result|/cancel)?$")


class _RouterHandler(BaseHTTPRequestHandler):
    """Routes one request; all state lives on ``self.server.router``."""

    server_version = "repro-router/1"
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 — stdlib signature
        pass

    @property
    def router(self) -> "RouterService":
        return self.server.router  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
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
        elif isinstance(payload, bytes):
            body = payload
        else:
            body = str(payload).encode("utf-8")
        duration_s = time.perf_counter() - self._t0
        self.router.metrics.observe_request(
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
        self.router.access_log.write(
            method=self.command,
            path=self.path,
            route=route,
            status=status,
            duration_ms=round(1000 * duration_s, 3),
            bytes=len(body),
            client=self.client_address[0],
        )

    def _error(self, status: int, message: str, route: str) -> None:
        self._reply(status, {"error": message}, route)

    def _relay(
        self,
        response: Tuple[int, dict, bytes],
        route: str,
        replica: Optional[str] = None,
    ) -> None:
        """Pass a replica's response through, keeping ``Retry-After``."""
        status, headers, body = response
        passthrough = {}
        if headers.get("Retry-After"):
            passthrough["Retry-After"] = headers["Retry-After"]
        if replica is not None:
            passthrough["X-Repro-Replica"] = replica
        self._reply(
            status,
            body,
            route,
            content_type=headers.get("Content-Type", "application/json"),
            headers=passthrough,
        )

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise JobValidationError(
                f"request body too large ({length} bytes > {MAX_BODY_BYTES})"
            )
        return self.rfile.read(length) if length else b""

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — stdlib naming
        self._t0 = time.perf_counter()
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        router = self.router
        if path == "/healthz":
            return self._reply(200, router.health_view(), "/healthz")
        if path == "/metrics":
            return self._reply(
                200, router.metrics_view(), "/metrics",
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        if path == "/catalog":
            return self._any_replica("GET", "/catalog", "/catalog")
        if path == "/jobs":
            return self._reply(200, router.jobs_view(), "/jobs")
        match = _JOB_ROUTE.match(path)
        if match and match.group(2) in (None, "/result"):
            job_id, tail = match.groups()
            route = "/jobs/{id}" + (tail or "")
            response, replica = router.lookup_job(
                "GET", job_id, tail or ""
            )
            return self._relay(response, route, replica)
        return self._error(404, f"no such endpoint: {path}", "unknown")

    def do_POST(self) -> None:  # noqa: N802 — stdlib naming
        self._t0 = time.perf_counter()
        path = self.path.split("?", 1)[0].rstrip("/")
        router = self.router
        if path == "/jobs":
            try:
                body = self._read_body()
                response, replica = router.route_submission(body)
            except JobValidationError as exc:
                return self._error(400, str(exc), "/jobs")
            except ServiceError as exc:
                return self._error(503, str(exc), "/jobs")
            return self._relay(response, "/jobs", replica)
        match = _JOB_ROUTE.match(path)
        if match and match.group(2) == "/cancel":
            response, replica = router.lookup_job(
                "POST", match.group(1), "/cancel"
            )
            return self._relay(response, "/jobs/{id}/cancel", replica)
        if path == "/shutdown":
            threading.Thread(
                target=router.stop, daemon=True
            ).start()
            return self._reply(202, {"status": "stopping"}, "/shutdown")
        return self._error(404, f"no such endpoint: {path}", "unknown")

    # ------------------------------------------------------------------
    def _any_replica(self, method: str, path: str, route: str) -> None:
        """Proxy a replica-agnostic read to the first live replica."""
        router = self.router
        for url in router.candidate_order():
            try:
                response = router.forward(url, method, path)
            except _ReplicaUnavailable:
                continue
            return self._relay(response, route, url)
        return self._error(503, "no replica is reachable", route)


class RouterService:
    """Registry + ring + balancer HTTP server, bundled for one lifecycle.

    Parameters
    ----------
    replicas:
        Base URLs of the ``repro serve`` replicas to balance across.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (tests).
    probe_interval:
        Seconds between background ``/healthz`` liveness sweeps
        (``0`` disables the probe thread — tests drive probes by hand).
    proxy_timeout:
        Socket timeout for each proxied request.
    vnodes:
        Virtual ring points per replica.
    access_log:
        Path or stream for the router's JSONL access log.
    """

    def __init__(
        self,
        replicas: Sequence[str],
        host: str = "127.0.0.1",
        port: int = 0,
        probe_interval: float = 5.0,
        probe_timeout: float = 2.0,
        proxy_timeout: float = 30.0,
        vnodes: int = 64,
        max_locations: int = 8192,
        access_log: Optional[Union[str, Path, IO[str]]] = None,
    ):
        self.registry = ReplicaRegistry(replicas, probe_timeout=probe_timeout)
        self.ring = HashRing(self.registry.urls, vnodes=vnodes)
        self.probe_interval = probe_interval
        self.proxy_timeout = proxy_timeout
        self.max_locations = max_locations
        self.metrics = ServiceMetrics()
        self.access_log = AccessLog(access_log)
        self.started_at = time.time()
        self._lock = threading.Lock()
        self._locations: "OrderedDict[str, str]" = OrderedDict()
        self.stats: Dict[str, float] = {
            "jobs_routed": 0,
            "ring_hits": 0,
            "failovers": 0,
            "cross_lookups": 0,
            "proxy_errors": 0,
        }
        self._routed_by_replica: Dict[str, int] = {
            url: 0 for url in self.registry.urls
        }
        self._httpd = ThreadingHTTPServer((host, port), _RouterHandler)
        self._httpd.daemon_threads = True
        self._httpd.router = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._probe_stop = threading.Event()
        self._probe_thread: Optional[threading.Thread] = None
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
    # proxy plumbing

    def forward(
        self,
        replica: str,
        method: str,
        path: str,
        body: Optional[bytes] = None,
    ) -> Tuple[int, dict, bytes]:
        """One proxied request; HTTP errors are *responses*, transport
        failures mark the replica dead and raise."""
        request = urllib.request.Request(replica + path, method=method)
        if body is not None:
            request.add_header("Content-Type", "application/json")
        try:
            with urllib.request.urlopen(
                request, data=body, timeout=self.proxy_timeout
            ) as response:
                payload = response.read()
                headers = dict(response.headers)
                status = response.getcode()
        except urllib.error.HTTPError as exc:
            payload = exc.read()
            headers = dict(exc.headers or {})
            status = exc.code
        except (urllib.error.URLError, OSError) as exc:
            reason = getattr(exc, "reason", exc)
            self.registry.mark_dead(
                replica, f"{type(exc).__name__}: {reason}"
            )
            with self._lock:
                self.stats["proxy_errors"] += 1
            raise _ReplicaUnavailable(
                f"replica {replica} is unreachable: {reason}"
            ) from exc
        self.registry.mark_alive(replica)
        return status, headers, payload

    def candidate_order(self, preference: Optional[List[str]] = None):
        """Replicas to try, live ones first (dead ones last-chance)."""
        order = preference if preference is not None else self.registry.urls
        alive = set(self.registry.alive_urls())
        return [url for url in order if url in alive] + [
            url for url in order if url not in alive
        ]

    def _remember_location(self, job_id: str, replica: str) -> None:
        with self._lock:
            self._locations[job_id] = replica
            self._locations.move_to_end(job_id)
            while len(self._locations) > self.max_locations:
                self._locations.popitem(last=False)

    # ------------------------------------------------------------------
    # routing decisions

    def route_submission(self, body: bytes) -> Tuple[Tuple[int, dict, bytes], str]:
        """Proxy one ``POST /jobs`` to the key's ring node (+ failover).

        The payload is validated *locally* first: the job key requires
        normalised params anyway, and a malformed submission should
        cost zero replica round-trips.
        """
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise JobValidationError(f"request body is not JSON: {exc}")
        if not isinstance(payload, dict):
            raise JobValidationError("request body must be a JSON object")
        kind = payload.get("kind")
        if not isinstance(kind, str):
            raise JobValidationError(
                "submission must carry a string 'kind' field"
            )
        params = normalize_params(kind, payload.get("params") or {})
        key = job_key(kind, params)
        preference = self.ring.preference(key)
        last_error: Optional[str] = None
        for replica in self.candidate_order(preference):
            try:
                response = self.forward(replica, "POST", "/jobs", body=body)
            except _ReplicaUnavailable as exc:
                last_error = str(exc)
                continue
            status, _, answer = response
            with self._lock:
                self.stats["jobs_routed"] += 1
                self._routed_by_replica[replica] += 1
                if replica == preference[0]:
                    self.stats["ring_hits"] += 1
                else:
                    self.stats["failovers"] += 1
            if status in (200, 202):
                try:
                    job_id = json.loads(answer.decode("utf-8")).get("id")
                except (UnicodeDecodeError, json.JSONDecodeError):
                    job_id = None
                if job_id:
                    self._remember_location(job_id, replica)
            return response, replica
        raise ServiceError(
            last_error or "no replica is reachable for this submission"
        )

    def lookup_job(
        self, method: str, job_id: str, tail: str
    ) -> Tuple[Tuple[int, dict, bytes], Optional[str]]:
        """Find the replica that knows ``job_id`` and proxy to it.

        The remembered location is tried first; a 404 there (or an
        unknown id — another client's submission, or a router restart)
        fans out across the remaining replicas and the first non-404
        answer wins and refreshes the location map.
        """
        with self._lock:
            located = self._locations.get(job_id)
        candidates = self.candidate_order()
        if located in candidates:
            candidates.remove(located)
            candidates.insert(0, located)
        path = f"/jobs/{job_id}{tail}"
        last: Optional[Tuple[int, dict, bytes]] = None
        last_replica: Optional[str] = None
        for rank, replica in enumerate(candidates):
            try:
                response = self.forward(replica, method, path)
            except _ReplicaUnavailable:
                continue
            status = response[0]
            if status == 404:
                last, last_replica = response, replica
                continue
            if rank > 0 or replica != located:
                with self._lock:
                    self.stats["cross_lookups"] += 1
            self._remember_location(job_id, replica)
            return response, replica
        if last is not None:
            return last, last_replica
        body = json.dumps(
            {"error": "no replica is reachable"}
        ).encode("utf-8")
        return (503, {}, body), None

    # ------------------------------------------------------------------
    # aggregated views

    def health_view(self) -> dict:
        self.registry.probe_all()
        replicas = self.registry.snapshot()
        alive = sum(1 for replica in replicas if replica["alive"])
        with self._lock:
            stats = dict(self.stats)
            routed = dict(self._routed_by_replica)
        for replica in replicas:
            replica["jobs_routed"] = routed.get(replica["url"], 0)
        return {
            "status": "ok" if alive else "degraded",
            "role": "router",
            "replicas": replicas,
            "replicas_alive": alive,
            "replicas_total": len(replicas),
            "router": stats,
            "uptime_s": round(time.time() - self.started_at, 3),
        }

    def jobs_view(self) -> dict:
        """Fan-out merge of every replica's ``GET /jobs``."""
        jobs: List[dict] = []
        for url in self.candidate_order():
            try:
                status, _, body = self.forward(url, "GET", "/jobs")
            except _ReplicaUnavailable:
                continue
            if status != 200:
                continue
            try:
                listed = json.loads(body.decode("utf-8")).get("jobs", [])
            except (UnicodeDecodeError, json.JSONDecodeError):
                continue
            for view in listed:
                view["replica"] = url
            jobs.extend(listed)
        jobs.sort(key=lambda view: view.get("submitted_at") or 0.0)
        return {"jobs": jobs}

    def metrics_view(self) -> str:
        """Aggregated exposition: fleet counters + router series."""
        documents: List[str] = []
        up: Dict[str, float] = {}
        for url in self.registry.urls:
            try:
                status, _, body = self.forward(url, "GET", "/metrics")
            except _ReplicaUnavailable:
                up[url] = 0.0
                continue
            up[url] = 1.0 if status == 200 else 0.0
            if status == 200:
                documents.append(body.decode("utf-8", "replace"))
        aggregated = aggregate_metrics(documents)
        with self._lock:
            stats = dict(self.stats)
            routed = dict(self._routed_by_replica)
        # campaign totals are counters; the other aggregatable series
        # (queue depth, worker / job-state / tombstone counts) are gauges
        counters = {
            name: value
            for name, value in aggregated.items()
            if name.startswith("repro_campaign_")
        }
        counters.update(
            {
                "repro_router_jobs_routed_total": stats["jobs_routed"],
                "repro_router_ring_hits_total": stats["ring_hits"],
                "repro_router_failovers_total": stats["failovers"],
                "repro_router_cross_lookups_total": stats["cross_lookups"],
                "repro_router_proxy_errors_total": stats["proxy_errors"],
            }
        )
        for url, count in routed.items():
            counters[
                f'repro_router_replica_jobs_routed{{replica="{url}"}}'
            ] = float(count)
        gauges = {
            name: value
            for name, value in aggregated.items()
            if not name.startswith("repro_campaign_")
        }
        gauges.update(
            {
                "repro_router_replicas": float(len(self.registry.urls)),
                "repro_router_replicas_alive": float(
                    sum(1 for value in up.values() if value)
                ),
            }
        )
        for url, value in up.items():
            gauges[f'repro_replica_up{{replica="{url}"}}'] = value
        return self.metrics.render(
            extra_gauges=gauges, extra_counters=counters
        )

    def stats_snapshot(self) -> dict:
        """Routing counters + per-replica routed totals."""
        with self._lock:
            return {
                **{name: value for name, value in self.stats.items()},
                "routed_by_replica": dict(self._routed_by_replica),
            }

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> "RouterService":
        """Serve in a background thread (embedding / tests)."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-router-http",
            daemon=True,
        )
        self._thread.start()
        if self.probe_interval > 0:
            self._probe_thread = threading.Thread(
                target=self._probe_loop,
                name="repro-router-probe",
                daemon=True,
            )
            self._probe_thread.start()
        return self

    def _probe_loop(self) -> None:
        while not self._probe_stop.wait(self.probe_interval):
            self.registry.probe_all()

    def stop(self) -> None:
        """Idempotent shutdown of the HTTP listener and probe thread."""
        if self._stopped.is_set():
            return
        self._stopped.set()
        self._probe_stop.set()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        if self._probe_thread is not None:
            self._probe_thread.join(timeout=5.0)
        self.access_log.close()

    def serve_forever(self) -> None:
        """Foreground serving with SIGTERM/SIGINT shutdown (CLI)."""

        def handle_signal(signum, frame):
            print(
                f"received signal {signum}: stopping the router",
                file=sys.stderr,
            )
            threading.Thread(target=self.stop, daemon=True).start()

        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                signal.signal(signum, handle_signal)
            except ValueError:
                pass  # not the main thread
        if self.probe_interval > 0:
            self._probe_thread = threading.Thread(
                target=self._probe_loop,
                name="repro-router-probe",
                daemon=True,
            )
            self._probe_thread.start()
        try:
            self._httpd.serve_forever(poll_interval=0.1)
        finally:
            self.stop()
