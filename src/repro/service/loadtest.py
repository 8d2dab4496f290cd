"""Load-test harness for the repro job server (``repro loadtest``).

Replays a deterministic faultsim/tolerance/diagnose job mix against a
*running* server through :class:`~repro.service.client.ServiceClient`
and characterises the service the way PAPERS.md's worst-/average-case
framing asks for — at the tail, not just the mean:

* **p50/p95/p99 latency** of submit → terminal, per run;
* **throughput** (jobs/s) at each concurrency step, and the
  **saturation throughput** — the best jobs/s any step achieved;
* **cache-hit ratio** from the server's own ``/metrics`` deltas
  (campaign ``cache_hits`` over ``units_done``) plus job-record cache
  answers observed client-side;
* **429 backpressure**: queue-full rejections are counted and retried
  after the server's ``Retry-After`` hint, never dropped.

The generator is **closed-loop** by default — ``concurrency`` clients
each keep exactly one job in flight, so offered load adapts to what the
server can absorb and the measured jobs/s *is* the sustainable
throughput at that concurrency.  An optional ``rps`` cap paces
submissions globally (open-loop style) for fixed-rate experiments.

Determinism: :func:`build_mix` expands ``(mix, n_jobs, seed)`` into the
exact same job list every time — seeded shuffle, cyclic parameter
variants — which is what lets the warm-restart acceptance check resubmit
"the whole mix" and expect every answer from cache, and lets the 1-vs-N
worker determinism test compare results across scheduler widths.

The CLI writes ``BENCH_service.json``; ``docs/performance.md`` renders
its table.
"""

from __future__ import annotations

import json
import math
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import QueueFullError, ReproError, ServiceError
from .client import ServiceClient
from .jobs import TERMINAL_STATES

#: job mixes: (kind, params, weight) — weights set the interleave ratio
MIXES: Dict[str, List[Tuple[str, dict, int]]] = {
    # CI-sized: one small circuit, coarse grids, seconds per job
    "smoke": [
        (
            "faultsim",
            {"target": "sallen_key", "ppd": 6, "decades": 1.0},
            3,
        ),
        (
            "tolerance",
            {
                "circuits": ["sallen_key"],
                "samples": 16,
                "ppd": 4,
                "decades": 0.5,
                "seed": 2026,
                "max_corner_components": 4,
            },
            1,
        ),
        (
            "diagnose",
            {"target": "sallen_key", "ppd": 6, "decades": 1.0, "steps": 2},
            1,
        ),
    ],
    # benchmark-sized: two circuits, denser grids
    "standard": [
        (
            "faultsim",
            {"target": "sallen_key", "ppd": 12, "decades": 1.5},
            3,
        ),
        (
            "faultsim",
            {"target": "bandpass_mfb", "ppd": 10, "decades": 1.0},
            2,
        ),
        (
            "tolerance",
            {
                "circuits": ["sallen_key", "bandpass_mfb"],
                "samples": 40,
                "ppd": 5,
                "decades": 0.5,
                "seed": 2026,
                "max_corner_components": 5,
            },
            1,
        ),
        (
            "diagnose",
            {"target": "sallen_key", "ppd": 8, "decades": 1.0, "steps": 3},
            1,
        ),
    ],
}

#: deterministic per-instance parameter variants (distinct job keys)
_EPSILONS = (0.10, 0.08, 0.12)
_PERCENTILES = (95.0, 90.0, 85.0)


def build_mix(
    mix: str = "smoke", n_jobs: int = 10, seed: int = 0
) -> List[Tuple[str, dict]]:
    """The deterministic job list for one load-test run.

    The weighted mix entries are cycled ``n_jobs`` times; each emitted
    copy of an entry gets that entry's next parameter variant (ε for
    faultsim and diagnose, the percentile for tolerance), so an entry
    repeats a job identity only once it has used all its variants — a
    pass over the weighted entries holds no duplicates — and the final
    order is a seeded shuffle.  Same ``(mix, n_jobs, seed)`` →
    byte-identical list, every time, on every machine.
    """
    if mix not in MIXES:
        raise ServiceError(
            f"unknown mix {mix!r}; expected one of {sorted(MIXES)}"
        )
    if n_jobs < 1:
        raise ServiceError(f"n_jobs must be >= 1, got {n_jobs}")
    weighted = [
        (entry, kind, params)
        for entry, (kind, params, weight) in enumerate(MIXES[mix])
        for _ in range(weight)
    ]
    emitted = [0] * len(MIXES[mix])
    jobs: List[Tuple[str, dict]] = []
    for index in range(n_jobs):
        entry, kind, base = weighted[index % len(weighted)]
        variant = emitted[entry]
        emitted[entry] += 1
        params = dict(base)
        if kind == "tolerance":
            params["percentile"] = _PERCENTILES[
                variant % len(_PERCENTILES)
            ]
        else:
            params["epsilon"] = _EPSILONS[variant % len(_EPSILONS)]
        jobs.append((kind, json.loads(json.dumps(params))))
    random.Random(seed).shuffle(jobs)
    return jobs


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


@dataclass
class LoadTestReport:
    """One load-test run's measurements (JSON-able via :meth:`to_json`)."""

    mix: str
    n_jobs: int
    concurrency: int
    rps: Optional[float]
    seed: int
    workers: Optional[int]
    duration_s: float
    jobs_per_s: float
    latency_ms: Dict[str, float]
    states: Dict[str, int]
    rejected_429: int
    job_cache_hits: int
    unit_cache_hit_ratio: Optional[float]
    campaign_deltas: Dict[str, float]
    outcomes: List[dict] = field(default_factory=list, repr=False)

    @property
    def ok(self) -> bool:
        """Every job reached ``done`` (cached answers included)."""
        return self.states.get("done", 0) == self.n_jobs

    def to_json(self, include_outcomes: bool = False) -> dict:
        payload = {
            "mix": self.mix,
            "n_jobs": self.n_jobs,
            "concurrency": self.concurrency,
            "rps": self.rps,
            "seed": self.seed,
            "workers": self.workers,
            "duration_s": round(self.duration_s, 6),
            "jobs_per_s": round(self.jobs_per_s, 6),
            "latency_ms": {
                name: round(value, 3)
                for name, value in self.latency_ms.items()
            },
            "states": dict(self.states),
            "rejected_429": self.rejected_429,
            "job_cache_hits": self.job_cache_hits,
            "unit_cache_hit_ratio": (
                round(self.unit_cache_hit_ratio, 6)
                if self.unit_cache_hit_ratio is not None
                else None
            ),
            "campaign_deltas": {
                name: value
                for name, value in sorted(self.campaign_deltas.items())
            },
            "ok": self.ok,
        }
        if include_outcomes:
            payload["outcomes"] = self.outcomes
        return payload


_CAMPAIGN_COUNTERS = (
    "repro_campaign_units_total",
    "repro_campaign_units_done",
    "repro_campaign_cache_hits",
    "repro_campaign_solves",
    "repro_campaign_factorizations",
    "repro_campaign_failures",
    "repro_campaign_retries",
)


def run_loadtest(
    url: str,
    mix: str = "smoke",
    n_jobs: int = 10,
    concurrency: int = 2,
    rps: Optional[float] = None,
    seed: int = 0,
    job_timeout: float = 300.0,
    request_timeout: float = 30.0,
    poll_s: float = 0.05,
) -> LoadTestReport:
    """Drive one load-test run against a live server; never raises on
    job-level failures (they land in the report's ``states``).

    ``concurrency`` clients each keep one job in flight (closed loop);
    ``rps`` optionally paces submissions to a global rate.  Queue-full
    rejections honour the server's ``Retry-After`` and are retried
    until accepted, counting toward ``rejected_429``.
    """
    if concurrency < 1:
        raise ServiceError(f"concurrency must be >= 1, got {concurrency}")
    if rps is not None and rps <= 0:
        raise ServiceError(f"rps must be > 0, got {rps:g}")
    jobs = build_mix(mix=mix, n_jobs=n_jobs, seed=seed)

    probe = ServiceClient(url, timeout=request_timeout)
    health = probe.health()  # raises early if the server is unreachable
    workers = health.get("workers")
    before = probe.metrics()

    lock = threading.Lock()
    cursor = {"index": 0}
    pace_state = {"next_slot": time.monotonic()}
    outcomes: List[dict] = []
    rejected = {"count": 0}

    def next_item() -> Optional[Tuple[int, str, dict]]:
        with lock:
            index = cursor["index"]
            if index >= len(jobs):
                return None
            cursor["index"] = index + 1
        kind, params = jobs[index]
        return index, kind, params

    def pace() -> None:
        if rps is None:
            return
        with lock:
            now = time.monotonic()
            slot = max(now, pace_state["next_slot"])
            pace_state["next_slot"] = slot + 1.0 / rps
        delay = slot - time.monotonic()
        if delay > 0:
            time.sleep(delay)

    def drive() -> None:
        client = ServiceClient(url, timeout=request_timeout)
        while True:
            item = next_item()
            if item is None:
                return
            index, kind, params = item
            pace()
            started = time.perf_counter()
            deadline = time.monotonic() + job_timeout
            outcome = {
                "index": index,
                "kind": kind,
                "state": "failed",
                "from_cache": False,
                "latency_s": 0.0,
            }
            try:
                view = None
                while True:
                    try:
                        view = client.submit(kind, params)
                        break
                    except QueueFullError as exc:
                        with lock:
                            rejected["count"] += 1
                        # retries share the job's own deadline: against
                        # a saturated server each client eventually
                        # gives up and records the rejection instead of
                        # spinning on 429s forever
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            outcome["state"] = "rejected_429"
                            outcome["error"] = (
                                f"gave up after {job_timeout:g}s of "
                                f"429 backpressure: {exc}"
                            )
                            break
                        time.sleep(
                            min(max(0.01, exc.retry_after_s), remaining)
                        )
                if view is not None:
                    if view["state"] not in TERMINAL_STATES:
                        view = client.wait(
                            view["id"],
                            timeout=max(
                                0.0, deadline - time.monotonic()
                            ),
                            poll_s=poll_s,
                        )
                    outcome["state"] = view["state"]
                    outcome["from_cache"] = bool(view.get("from_cache"))
                    if view.get("error"):
                        outcome["error"] = view["error"]
            except (ReproError, OSError) as exc:
                outcome["error"] = f"{type(exc).__name__}: {exc}"
            outcome["latency_s"] = time.perf_counter() - started
            with lock:
                outcomes.append(outcome)

    t0 = time.perf_counter()
    threads = [
        threading.Thread(
            target=drive, name=f"loadtest-{index}", daemon=True
        )
        for index in range(min(concurrency, n_jobs))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    duration_s = time.perf_counter() - t0

    after = probe.metrics()
    deltas = {
        name.replace("repro_campaign_", ""): after.get(name, 0.0)
        - before.get(name, 0.0)
        for name in _CAMPAIGN_COUNTERS
        if name in after or name in before
    }
    units_done = deltas.get("units_done", 0.0)
    hit_ratio = (
        deltas.get("cache_hits", 0.0) / units_done if units_done else None
    )

    outcomes.sort(key=lambda outcome: outcome["index"])
    latencies = sorted(o["latency_s"] for o in outcomes)
    states: Dict[str, int] = {}
    for outcome in outcomes:
        states[outcome["state"]] = states.get(outcome["state"], 0) + 1
    return LoadTestReport(
        mix=mix,
        n_jobs=n_jobs,
        concurrency=concurrency,
        rps=rps,
        seed=seed,
        workers=workers,
        duration_s=duration_s,
        jobs_per_s=len(outcomes) / duration_s if duration_s > 0 else 0.0,
        latency_ms={
            "p50": 1000.0 * percentile(latencies, 50.0),
            "p95": 1000.0 * percentile(latencies, 95.0),
            "p99": 1000.0 * percentile(latencies, 99.0),
            "mean": (
                1000.0 * sum(latencies) / len(latencies)
                if latencies
                else 0.0
            ),
            "max": 1000.0 * (latencies[-1] if latencies else 0.0),
        },
        states=states,
        rejected_429=rejected["count"],
        job_cache_hits=sum(1 for o in outcomes if o["from_cache"]),
        unit_cache_hit_ratio=hit_ratio,
        campaign_deltas=deltas,
        outcomes=outcomes,
    )


@dataclass
class ReplicatedReport:
    """One ``--replicas N`` run: the loadtest through a router plus the
    router's own routing statistics and the 1-replica comparison."""

    replicas: int
    report: LoadTestReport
    router_stats: Dict[str, float]
    routed_by_replica: Dict[str, int]
    routing_hit_ratio: Optional[float]
    per_replica_jobs_per_s: Dict[str, float]
    baseline_jobs_per_s: Optional[float]
    scale_out_efficiency: Optional[float]

    def to_json(self) -> dict:
        return {
            "replicas": self.replicas,
            "routing_hit_ratio": (
                round(self.routing_hit_ratio, 6)
                if self.routing_hit_ratio is not None
                else None
            ),
            "router": {
                name: value
                for name, value in sorted(self.router_stats.items())
            },
            "routed_by_replica": dict(self.routed_by_replica),
            "per_replica_jobs_per_s": {
                url: round(value, 6)
                for url, value in self.per_replica_jobs_per_s.items()
            },
            "baseline_jobs_per_s": (
                round(self.baseline_jobs_per_s, 6)
                if self.baseline_jobs_per_s is not None
                else None
            ),
            "scale_out_efficiency": (
                round(self.scale_out_efficiency, 6)
                if self.scale_out_efficiency is not None
                else None
            ),
            "run": self.report.to_json(),
        }


def run_replicated_loadtest(
    replicas: int = 2,
    mix: str = "smoke",
    n_jobs: int = 10,
    concurrency: int = 2,
    seed: int = 0,
    workers: int = 2,
    queue_limit: int = 16,
    job_timeout: float = 300.0,
    request_timeout: float = 30.0,
    baseline: bool = True,
    vnodes: int = 64,
) -> ReplicatedReport:
    """Measure the scale-out story end to end, in one process.

    Boots ``replicas`` private-cache servers plus a
    :class:`~repro.service.router.RouterService` in front of them,
    replays the deterministic mix through the *router*, and reads the
    routing statistics straight off the router object: the **routing
    hit ratio** (submissions landing on their ring-primary — identical
    resubmissions keep hitting the same warm replica) and per-replica
    throughput.  With ``baseline=True`` the same mix then runs against
    a fresh 1-replica stack so ``scale_out_efficiency`` compares
    N-replica jobs/s against N× the single-server jobs/s — the PR 7
    single-server framing, measured through the same router overhead.
    """
    if replicas < 1:
        raise ServiceError(f"replicas must be >= 1, got {replicas}")
    import os
    import tempfile

    from .router import RouterService
    from .server import ReproService, ServiceRuntime

    def measure(n: int) -> Tuple[LoadTestReport, dict]:
        with tempfile.TemporaryDirectory(prefix="repro-replicas-") as tmp:
            services: List[ReproService] = []
            router: Optional[RouterService] = None
            try:
                for index in range(n):
                    runtime = ServiceRuntime(
                        cache_dir=os.path.join(tmp, f"replica-{index}")
                    )
                    services.append(
                        ReproService(
                            port=0,
                            runtime=runtime,
                            workers=workers,
                            queue_limit=queue_limit,
                            retry_after_s=0.25,
                        ).start()
                    )
                router = RouterService(
                    [service.url for service in services],
                    probe_interval=0.0,
                    vnodes=vnodes,
                ).start()
                report = run_loadtest(
                    router.url,
                    mix=mix,
                    n_jobs=n_jobs,
                    concurrency=concurrency,
                    seed=seed,
                    job_timeout=job_timeout,
                    request_timeout=request_timeout,
                )
                return report, router.stats_snapshot()
            finally:
                if router is not None:
                    router.stop()
                for service in services:
                    service.stop(drain=True, timeout=30.0)

    report, stats = measure(replicas)
    routed_by_replica = stats.pop("routed_by_replica")
    routed = stats.get("jobs_routed", 0)
    hit_ratio = stats["ring_hits"] / routed if routed else None
    per_replica = {
        url: count / report.duration_s if report.duration_s > 0 else 0.0
        for url, count in routed_by_replica.items()
    }

    baseline_jps = efficiency = None
    if baseline and replicas > 1:
        baseline_report, _ = measure(1)
        baseline_jps = baseline_report.jobs_per_s
        if baseline_jps > 0:
            efficiency = report.jobs_per_s / (replicas * baseline_jps)

    return ReplicatedReport(
        replicas=replicas,
        report=report,
        router_stats=stats,
        routed_by_replica=routed_by_replica,
        routing_hit_ratio=hit_ratio,
        per_replica_jobs_per_s=per_replica,
        baseline_jobs_per_s=baseline_jps,
        scale_out_efficiency=efficiency,
    )


def loadtest_document(
    url: str, runs: Sequence[LoadTestReport], started_at: float
) -> dict:
    """The ``BENCH_service.json`` payload for a set of runs.

    The headline numbers (tail latency, cache-hit ratio) come from the
    *last* run — the highest concurrency step in a ramp — while
    ``saturation_jobs_per_s`` is the best throughput any step reached.
    """
    import platform

    last = runs[-1]
    return {
        "benchmark": "service-loadtest",
        "url": url,
        "started_at": started_at,
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus": __import__("os").cpu_count(),
        },
        "saturation_jobs_per_s": round(
            max(run.jobs_per_s for run in runs), 6
        ),
        "latency_ms": dict(last.latency_ms),
        "unit_cache_hit_ratio": last.unit_cache_hit_ratio,
        "runs": [run.to_json() for run in runs],
    }
