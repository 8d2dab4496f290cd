"""Service layer — a long-running job server over the campaign stack.

The ROADMAP's north star is a traffic-serving system; PRs 1–4 built the
compute (parallel executors, content-addressed caches, batched solves,
telemetry) but every entry point was a one-shot CLI run that paid
process startup, cold caches and cold worker pools per invocation.
This package adds the serving tier, stdlib-only:

* :mod:`~repro.service.jobs` — the job model: faultsim / tolerance /
  diagnose / verify payloads whose params, checks and runners are
  derived from :mod:`repro.operations`, content-hashed job records
  persisted through :class:`~repro.campaign.cache.ResultCache` (a
  restarted server answers repeat jobs from disk), and per-job
  telemetry with cooperative cancellation and deadlines;
* :mod:`~repro.service.scheduler` — :class:`ServiceRuntime` (warm
  executor(s) + caches + telemetry shared by all jobs, brokered to
  concurrent jobs through :class:`ExecutorLeasePool`) and
  :class:`JobScheduler` (N worker threads over a bounded queue, 429
  admission control, submission-anchored deadlines, graceful draining
  shutdown);
* :mod:`~repro.service.metrics` — Prometheus text exposition: campaign
  counters, queue depth, job states, per-route latency histograms;
* :mod:`~repro.service.server` — the ``http.server`` API surface with
  structured JSON access logs (:class:`ReproService`);
* :mod:`~repro.service.client` — a urllib :class:`ServiceClient`
  (submit / poll / wait / result / cancel) raising the same typed
  errors the server does;
* :mod:`~repro.service.router` — the scale-out tier:
  :class:`RouterService` balances several replicas behind one URL by
  consistent-hashing content-addressed job keys, with
  ``/healthz``-driven failover and fleet-aggregated ``/metrics``.

Start one with ``python -m repro serve --port 8321 --jobs 4
--cache-dir .repro-service`` and see ``docs/service.md`` for the API;
put ``python -m repro route --replica ...`` in front of several.
"""

from .client import ServiceClient
from .jobs import (
    JOB_KINDS,
    JOB_RECORD,
    PARAM_SPECS,
    Job,
    JobTelemetry,
    JobTombstone,
    job_key,
    job_record,
    normalize_params,
)
from .metrics import ServiceMetrics, aggregate_metrics, parse_metrics
from .router import HashRing, ReplicaRegistry, RouterService
from .scheduler import ExecutorLeasePool, JobScheduler, ServiceRuntime
from .server import ReproService

__all__ = [
    "ExecutorLeasePool",
    "HashRing",
    "JOB_KINDS",
    "JOB_RECORD",
    "Job",
    "JobScheduler",
    "JobTombstone",
    "JobTelemetry",
    "PARAM_SPECS",
    "ReplicaRegistry",
    "ReproService",
    "RouterService",
    "ServiceClient",
    "ServiceMetrics",
    "ServiceRuntime",
    "aggregate_metrics",
    "job_key",
    "job_record",
    "normalize_params",
    "parse_metrics",
]
