"""Job model for the repro service: typed payloads, states, records.

A *job* is one unit of admission for the long-running server in
:mod:`repro.service.server` — a fault-simulation campaign, a tolerance
(ε-calibration) campaign, a trajectory-dictionary diagnosis build, or a
differential-oracle verification sweep, described entirely by a
JSON-able ``params`` dict.  This module owns

* the **param specs** (:data:`PARAM_SPECS`): every job kind's params,
  derived from the declarations in :mod:`repro.operations` (which the
  CLI's flags are generated from too) plus the service-only
  ``timeout_s`` envelope;
* **normalisation** (:func:`normalize_params`): type coercion,
  unknown-key rejection and the declared checks, raising
  :class:`~repro.errors.JobValidationError` before a bad job is queued;
* the **content key** (:func:`job_key`): a SHA-256 over the kind and
  the identity-relevant normalised params.  Completed jobs are persisted
  as job records (:func:`job_record`) in a
  :class:`~repro.campaign.cache.ResultCache` under that key, so a
  restarted server answers a re-submitted identical job from disk
  without recomputing (and a live server deduplicates repeats);
* the **lifecycle state machine** (:class:`Job`):
  ``queued → running → done | failed | cancelled``;
* the **runners** (:func:`execute_job`): each kind's declared run on
  top of the campaign stack, observed by a :class:`JobTelemetry` that feeds
  both the job's own progress counters and the server-wide telemetry,
  and that enforces cooperative cancellation and per-job deadlines at
  work-unit granularity.

Everything heavier than the standard library is imported lazily inside
the runners, keeping ``import repro.service.jobs`` cheap for the CLI.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..campaign.executor import UnitResult
from ..campaign.telemetry import CampaignTelemetry
from ..errors import (
    JobCancelledError,
    JobTimeoutError,
    JobValidationError,
)
from ..operations import OPERATIONS, Context, Param, violation

#: bumped whenever the job param recipe or record layout changes; not
#: for a deleted param, which changes the identity text of every job of
#: its kind, so no stored record is read under a new key (dropping
#: faultsim's ``chunk`` moved every faultsim key and no other)
SERVICE_FORMAT = "service-v4"

# ----------------------------------------------------------------------
# states

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})


# ----------------------------------------------------------------------
# params — derived from the declarations in :mod:`repro.operations`,
# plus the one service-only envelope field, ``timeout_s``

TIMEOUT_PARAM = Param(
    "timeout_s", float, None,
    "time budget in seconds (default: the server's --job-timeout)",
    check="> 0", identity=False,
)

#: ``kind -> {name: Param}``, in declaration order
PARAM_SPECS: Dict[str, Dict[str, Param]] = {
    kind: {param.name: param for param in (*operation.params, TIMEOUT_PARAM)}
    for kind, operation in OPERATIONS.items()
}

JOB_KINDS = tuple(PARAM_SPECS)


def _coerce(kind: str, name: str, kind_type: type, value):
    """Coerce one JSON value to the spec type, or raise."""
    if value is None:
        return None
    if kind_type is bool:
        if isinstance(value, bool):
            return value
        raise JobValidationError(
            f"{kind}: param {name!r} must be a boolean, got {value!r}"
        )
    if kind_type is list:
        if isinstance(value, (list, tuple)):
            return [str(item) for item in value]
        if isinstance(value, str):  # convenience: comma-separated
            return [part.strip() for part in value.split(",") if part.strip()]
        raise JobValidationError(
            f"{kind}: param {name!r} must be a list of names, got {value!r}"
        )
    if kind_type in (int, float) and isinstance(value, bool):
        raise JobValidationError(
            f"{kind}: param {name!r} must be a number, got {value!r}"
        )
    try:
        return kind_type(value)
    except (TypeError, ValueError):
        raise JobValidationError(
            f"{kind}: param {name!r} expects {kind_type.__name__}, "
            f"got {value!r}"
        ) from None


def normalize_params(kind: str, params: Optional[dict]) -> dict:
    """Validated, default-filled copy of a submitted params dict.

    Raises :class:`~repro.errors.JobValidationError` on an unknown job
    kind, unknown keys, type mismatches, a value outside its declared
    check or a broken cross-param rule — the server turns that into an
    HTTP 400 before anything is queued, and the CLI into one ``error:``
    line before anything is solved.
    """
    if kind not in PARAM_SPECS:
        raise JobValidationError(
            f"unknown job kind {kind!r}; expected one of {JOB_KINDS}"
        )
    spec = PARAM_SPECS[kind]
    params = dict(params or {})
    unknown = sorted(set(params) - set(spec))
    if unknown:
        raise JobValidationError(
            f"{kind}: unknown param(s) {', '.join(map(repr, unknown))}; "
            f"expected a subset of {sorted(spec)}"
        )
    normalized = {}
    for name, param in spec.items():
        value = params.get(name, param.default)
        value = _coerce(kind, name, param.type, value)
        reason = violation(param, value)
        if reason is not None:
            raise JobValidationError(f"{kind}: {name} {reason}")
        normalized[name] = value
    for holds, reason in OPERATIONS[kind].rules:
        if not holds(normalized):
            raise JobValidationError(f"{kind}: {reason}")
    return normalized


def job_key(kind: str, params: dict) -> str:
    """Content hash of a normalised job (stable across processes).

    Only identity-relevant params participate — a different
    ``timeout_s`` budget must still hit the same cached record.
    """
    spec = PARAM_SPECS[kind]
    identity = {
        name: value for name, value in params.items() if spec[name].identity
    }
    payload = json.dumps(
        [SERVICE_FORMAT, kind, identity], sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def is_cacheable(kind: str, params: dict) -> bool:
    """Whether an identical re-submission may be served from a record.

    A verification sweep with fresh-entropy random cases (``seed`` is
    ``None`` while ``random > 0``) is intentionally non-deterministic,
    so its record must never satisfy a later submission.
    """
    if kind == "verify" and params.get("random") and params.get("seed") is None:
        return False
    return True


# ----------------------------------------------------------------------
# records and jobs

#: sentinel distinguishing "no scheduler assigned a lease" from "the
#: scheduler assigned an empty lease (run serially)"
_UNLEASED = object()


def job_executor(job: "Job", runtime):
    """The executor a runner should fan units out on.

    A job executed by the :class:`~repro.service.scheduler.JobScheduler`
    carries the executor lease its worker acquired (possibly ``None`` —
    run serially rather than contend on a pool another job holds).  A
    job executed directly (tests, embedding) falls back to the
    runtime's shared executor.
    """
    if job.executor is _UNLEASED:
        return runtime.executor
    return job.executor


#: the cache kind of a completed job's record
JOB_RECORD = "job"


def job_record(job: "Job") -> UnitResult:
    """The persisted record of a completed job (cacheable).

    A :class:`~repro.campaign.executor.UnitResult` of kind
    :data:`JOB_RECORD` whose JSON values are the job's ``params``, its
    ``result`` and ``wall_s``; the cache checks the kind and the key on
    the way out, so a corrupted or mismatched record reads as a miss.
    """
    return UnitResult(
        kind=JOB_RECORD,
        key=job.key,
        values={
            "params": job.params,
            "result": job.result,
            "wall_s": job.wall_s,
        },
    )


@dataclass
class JobTombstone:
    """What remains of a pruned terminal job: identity, not payload.

    The scheduler keeps only ``keep_jobs`` full :class:`Job` objects in
    memory; older terminal jobs collapse to one of these so a client
    that polls ``GET /jobs/<id>`` *after* the prune still learns the
    job's final state instead of a 404 (the pruning race).  The
    ``key`` lets ``GET /jobs/<id>/result`` re-hydrate a ``done``
    cacheable job's result from the job-record cache.  Tombstones
    expire ``tombstone_ttl`` seconds after the prune.
    """

    id: str
    kind: str
    key: str
    state: str
    error: Optional[str]
    submitted_at: float
    started_at: Optional[float]
    finished_at: Optional[float]
    from_cache: bool
    cacheable: bool
    wall_s: float
    #: monotonic instant after which the tombstone may be dropped
    expires_at: float = 0.0

    @property
    def done(self) -> bool:
        return True  # only terminal jobs are ever tombstoned

    def to_api(self, include_result: bool = False) -> dict:
        """The JSON view served for a pruned job (``"pruned": true``)."""
        view = {
            "id": self.id,
            "kind": self.kind,
            "key": self.key,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "from_cache": self.from_cache,
            "error": self.error,
            "wall_s": round(self.wall_s, 6),
            "pruned": True,
        }
        if include_result:
            view["result"] = None
        return view


class Job:
    """One submitted job: payload, lifecycle state, timestamps, result.

    State transitions are performed by the scheduler under its lock;
    readers go through :meth:`to_api`, which assembles a JSON-able view
    including live progress counters while the job is running.
    """

    def __init__(self, kind: str, params: dict):
        self.id = uuid.uuid4().hex[:12]
        self.kind = kind
        self.params = params
        self.key = job_key(kind, params)
        self.cacheable = is_cacheable(kind, params)
        self.state = QUEUED
        self.submitted_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.result: Optional[dict] = None
        self.error: Optional[str] = None
        self.from_cache = False
        self.cancel_event = threading.Event()
        self.telemetry: Optional["JobTelemetry"] = None
        #: monotonic deadline set at submission (None = unlimited)
        self.deadline: Optional[float] = None
        #: the scheduler-granted executor lease; ``_UNLEASED`` marks a
        #: job executed outside a scheduler (direct ``execute_job``),
        #: ``None`` a scheduled job that must run its units serially
        self.executor: Any = _UNLEASED

    @property
    def done(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def wall_s(self) -> float:
        if self.started_at is None:
            return 0.0
        end = self.finished_at if self.finished_at is not None else time.time()
        return end - self.started_at

    def to_api(self, include_result: bool = False) -> dict:
        """The JSON view served by ``GET /jobs/<id>``."""
        view = {
            "id": self.id,
            "kind": self.kind,
            "key": self.key,
            "state": self.state,
            "params": self.params,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "from_cache": self.from_cache,
            "error": self.error,
            "wall_s": round(self.wall_s, 6),
        }
        telemetry = self.telemetry
        if telemetry is not None:
            view["progress"] = telemetry.snapshot()
        if include_result:
            view["result"] = self.result
        return view


class JobTelemetry(CampaignTelemetry):
    """Per-job telemetry that tees into the server-wide instance.

    Every unit outcome is recorded twice — on this instance (the job's
    own progress counters, served by ``GET /jobs/<id>``) and on the
    shared server telemetry (the ``/metrics`` totals).  After each
    outcome :meth:`checkpoint` runs, giving the service cooperative
    cancellation and deadline enforcement with one-work-unit latency.
    """

    def __init__(
        self,
        job: Job,
        shared: Optional[CampaignTelemetry] = None,
        deadline: Optional[float] = None,
    ):
        super().__init__()
        self.job = job
        self.shared = shared
        self.deadline = deadline

    def checkpoint(self) -> None:
        """Raise if the job was cancelled or ran past its deadline."""
        if self.job.cancel_event.is_set():
            raise JobCancelledError(f"job {self.job.id} cancelled")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise JobTimeoutError(
                f"job {self.job.id} exceeded its time budget"
            )

    def campaign_start(self, plan, executor_name, jobs=1) -> None:
        super().campaign_start(plan, executor_name, jobs=jobs)
        if self.shared is not None:
            self.shared.campaign_start(plan, executor_name, jobs=jobs)

    def unit_outcome(self, outcome) -> None:
        super().unit_outcome(outcome)
        if self.shared is not None:
            self.shared.unit_outcome(outcome)
        self.checkpoint()

    def campaign_end(self) -> None:
        super().campaign_end()
        if self.shared is not None:
            self.shared.campaign_end()

    def ndetect_cover(
        self, n_detect: int, cover_size: int, n_fragile_entries: int
    ) -> None:
        super().ndetect_cover(n_detect, cover_size, n_fragile_entries)
        if self.shared is not None:
            self.shared.ndetect_cover(
                n_detect, cover_size, n_fragile_entries
            )


# ----------------------------------------------------------------------
# runners — each kind's declared run, lent the runtime's executor lease,
# unit cache and the job's telemetry


def _job_runner(kind: str):
    operation = OPERATIONS[kind]

    def run(job: Job, runtime, telemetry: JobTelemetry) -> dict:
        context = Context(
            executor=job_executor(job, runtime),
            cache=runtime.cache,
            telemetry=telemetry,
        )
        result, detail = operation.run(job.params, context)
        robustness = detail.get("robustness")
        if robustness is not None:  # a faultsim job's n-detect cover
            telemetry.ndetect_cover(
                robustness.n_detect,
                result["cover_size"],
                robustness.n_fragile_entries,
            )
        return result

    return run


#: ``kind -> runner(job, runtime, telemetry)``; tests swap entries
RUNNERS = {kind: _job_runner(kind) for kind in OPERATIONS}


def execute_job(job: Job, runtime, telemetry: JobTelemetry) -> dict:
    """Dispatch one job to its runner; returns the JSON-able result."""
    return RUNNERS[job.kind](job, runtime, telemetry)
