"""Job model for the repro service: typed payloads, states, records.

A *job* is one unit of admission for the long-running server in
:mod:`repro.service.server` — a fault-simulation campaign, a tolerance
(ε-calibration) campaign, a trajectory-dictionary diagnosis build, or a
differential-oracle verification sweep, described entirely by a
JSON-able ``params`` dict.  This module owns

* the **param specs** (:data:`PARAM_SPECS`): names, types and defaults
  of every job kind's parameters.  The CLI imports these same defaults
  for its flags, so serve-side payloads and shell flags cannot drift;
* **normalisation** (:func:`normalize_params`): type coercion,
  unknown-key rejection and domain validation, raising
  :class:`~repro.errors.JobValidationError` before a bad job is queued;
* the **content key** (:func:`job_key`): a SHA-256 over the kind and
  the identity-relevant normalised params.  Completed jobs are persisted
  as :class:`JobRecord` entries in a
  :class:`~repro.campaign.cache.ResultCache` under that key, so a
  restarted server answers a re-submitted identical job from disk
  without recomputing (and a live server deduplicates repeats);
* the **lifecycle state machine** (:class:`Job`):
  ``queued → running → done | failed | cancelled``;
* the **runners** (:func:`execute_job`): per-kind execution on top of
  the campaign stack, observed by a :class:`JobTelemetry` that feeds
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
from typing import Any, Dict, Optional, Tuple

from ..campaign.telemetry import CampaignTelemetry
from ..errors import (
    JobCancelledError,
    JobTimeoutError,
    JobValidationError,
)

#: bumped whenever the job param recipe or record layout changes
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
# param specs — the single source of truth for job parameters.  Each
# entry maps ``name -> (type, default)``; ``None`` defaults mean
# "optional / engine decides".  The CLI reads these defaults for its
# flag declarations.

FAULTSIM_PARAMS: Dict[str, Tuple[type, Any]] = {
    "target": (str, None),       # catalog circuit name
    "netlist": (str, None),      # inline netlist text (alternative)
    "epsilon": (float, 0.10),
    "deviation": (float, 0.20),
    "f0": (float, None),
    "decades": (float, 2.0),
    "ppd": (int, 50),
    "chunk": (int, None),
    "n_detect": (int, 1),        # detection multiplicity of the cover
    "saturate": (bool, False),   # best-effort n-detect (clamp, don't raise)
    "timeout_s": (float, None),  # None -> the server's default budget
}

TOLERANCE_PARAMS: Dict[str, Tuple[type, Any]] = {
    "circuits": (list, None),    # catalog names; None -> whole catalog
    "tolerance": (float, 0.05),
    "samples": (int, 200),
    "distribution": (str, "uniform"),
    "seed": (int, 2026),
    "percentile": (float, 95.0),
    "decades": (float, 1.0),
    "ppd": (int, 10),
    "corners": (bool, True),
    "max_corner_components": (int, 10),
    "timeout_s": (float, None),
}

DIAGNOSE_PARAMS: Dict[str, Tuple[type, Any]] = {
    "target": (str, None),       # catalog circuit name
    "netlist": (str, None),      # inline netlist text (alternative)
    "component": (str, None),    # seeded injection: faulty component
    "fault_deviation": (float, None),  # seeded injection: its deviation
    "epsilon": (float, 0.10),
    "span": (float, 0.5),        # deviation-grid half-width
    "steps": (int, 4),           # grid points per side
    "distance": (str, "relative"),
    "ambiguity": (float, 0.02),
    "f0": (float, None),
    "decades": (float, 2.0),
    "ppd": (int, 50),
    "timeout_s": (float, None),
}

VERIFY_PARAMS: Dict[str, Tuple[type, Any]] = {
    "circuits": (list, None),
    "random": (int, 0),
    "seed": (int, None),
    "epsilon": (float, 0.10),
    "ppd": (int, 20),
    "invariants": (bool, True),
    "timeout_s": (float, None),
}

PARAM_SPECS: Dict[str, Dict[str, Tuple[type, Any]]] = {
    "faultsim": FAULTSIM_PARAMS,
    "tolerance": TOLERANCE_PARAMS,
    "diagnose": DIAGNOSE_PARAMS,
    "verify": VERIFY_PARAMS,
}

JOB_KINDS = tuple(PARAM_SPECS)

#: params that never influence the result, excluded from the content key
NON_IDENTITY_PARAMS = frozenset({"timeout_s"})


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
    kind, unknown keys, type mismatches or domain violations — the
    server turns that into an HTTP 400 before anything is queued.
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
    for name, (kind_type, default) in spec.items():
        value = params.get(name, default)
        normalized[name] = _coerce(kind, name, kind_type, value)

    if kind == "faultsim":
        if (normalized["target"] is None) == (normalized["netlist"] is None):
            raise JobValidationError(
                "faultsim: exactly one of 'target' (catalog name) or "
                "'netlist' (inline netlist text) is required"
            )
        if normalized["n_detect"] < 1:
            raise JobValidationError(
                f"faultsim: n_detect must be >= 1, got "
                f"{normalized['n_detect']}"
            )
    if kind == "tolerance":
        if normalized["distribution"] not in ("uniform", "normal"):
            raise JobValidationError(
                f"tolerance: distribution must be 'uniform' or 'normal', "
                f"got {normalized['distribution']!r}"
            )
    if kind == "diagnose":
        if (normalized["target"] is None) == (normalized["netlist"] is None):
            raise JobValidationError(
                "diagnose: exactly one of 'target' (catalog name) or "
                "'netlist' (inline netlist text) is required"
            )
        if normalized["distance"] not in ("relative", "band"):
            raise JobValidationError(
                f"diagnose: distance must be 'relative' or 'band', got "
                f"{normalized['distance']!r}"
            )
        if not 0.0 < normalized["span"] < 1.0:
            raise JobValidationError(
                f"diagnose: span must be in (0, 1), got "
                f"{normalized['span']:g}"
            )
        if normalized["steps"] < 1:
            raise JobValidationError("diagnose: steps must be >= 1")
        if normalized["ambiguity"] < 0:
            raise JobValidationError("diagnose: ambiguity must be >= 0")
        if (normalized["component"] is None) != (
            normalized["fault_deviation"] is None
        ):
            raise JobValidationError(
                "diagnose: 'component' and 'fault_deviation' describe "
                "one seeded fault and must be given together"
            )
        deviation = normalized["fault_deviation"]
        if deviation is not None and (
            deviation == 0.0 or deviation <= -1.0
        ):
            raise JobValidationError(
                f"diagnose: fault_deviation must be nonzero and > -1, "
                f"got {deviation:g}"
            )
    for name in ("epsilon", "deviation", "tolerance"):
        value = normalized.get(name)
        if value is not None and value <= 0:
            raise JobValidationError(f"{kind}: {name} must be > 0")
    for name in ("ppd", "samples", "random"):
        value = normalized.get(name)
        if value is not None and value < 0:
            raise JobValidationError(f"{kind}: {name} must be >= 0")
    timeout_s = normalized.get("timeout_s")
    if timeout_s is not None and timeout_s <= 0:
        raise JobValidationError(f"{kind}: timeout_s must be > 0")
    return normalized


def job_key(kind: str, params: dict) -> str:
    """Content hash of a normalised job (stable across processes).

    Only identity-relevant params participate — a different
    ``timeout_s`` budget must still hit the same cached record.
    """
    identity = {
        name: value
        for name, value in params.items()
        if name not in NON_IDENTITY_PARAMS
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


@dataclass
class JobRecord:
    """The persisted payload of one completed job (cacheable).

    Stored in a :class:`~repro.campaign.cache.ResultCache` constructed
    with ``payload_type=JobRecord``; the cache validates ``key`` on the
    way out, so a corrupted or mismatched record reads as a miss.
    """

    key: str
    kind: str
    params: dict
    result: dict
    wall_s: float = 0.0


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
# runners — heavy imports stay local so the module imports in ~nothing


def center_frequency(circuit, override: Optional[float] = None) -> float:
    """Reference-region centre: ``override`` or the geometric pole mean.

    Shared by the CLI netlist commands and the faultsim job runner.
    """
    if override is not None:
        return override
    import math

    from ..analysis import circuit_poles
    from ..errors import ReproError

    poles = [p for p in circuit_poles(circuit) if abs(p) > 0]
    if not poles:
        raise ReproError(
            "circuit has no poles; pass f0 to place the reference region"
        )
    magnitudes = [abs(p) for p in poles]
    geometric = math.sqrt(min(magnitudes) * max(magnitudes))
    return geometric / (2.0 * math.pi)


def resolve_circuit(params: dict):
    """(circuit, f0_hz, label) for a faultsim job's target.

    ``params["netlist"]`` carries inline netlist text; otherwise
    ``params["target"]`` names a catalog circuit.
    """
    from ..circuit import parse_netlist, validate_circuit

    if params.get("netlist") is not None:
        circuit = parse_netlist(params["netlist"])
        validate_circuit(circuit)
        f0 = center_frequency(circuit, params.get("f0"))
        return circuit, f0, circuit.title or "netlist"

    from ..circuits import catalog
    from ..errors import JobValidationError

    name = params["target"]
    if name not in catalog():
        raise JobValidationError(
            f"{name!r} is not a catalog circuit (see GET /catalog)"
        )
    from ..circuits import build

    bench = build(name)
    f0 = params["f0"] if params.get("f0") is not None else bench.f0_hz
    return bench.circuit, f0, name


def run_faultsim(job: Job, runtime, telemetry: JobTelemetry) -> dict:
    """Fault × configuration campaign through the shared runtime."""
    from ..analysis import decade_grid
    from ..campaign import execute_plan, plan_campaign
    from ..dft import apply_multiconfiguration
    from ..faults import SimulationSetup, deviation_faults
    from ..reporting.export import dataset_to_json

    params = job.params
    circuit, f0, label = resolve_circuit(params)
    telemetry.checkpoint()
    mcc = apply_multiconfiguration(circuit)
    faults = deviation_faults(circuit, deviation=params["deviation"])
    grid = decade_grid(
        f0,
        decades_below=params["decades"],
        decades_above=params["decades"],
        points_per_decade=params["ppd"],
    )
    setup = SimulationSetup(grid=grid, epsilon=params["epsilon"])
    plan = plan_campaign(mcc, faults, setup, chunk_size=params["chunk"])
    dataset = execute_plan(
        plan,
        executor=job_executor(job, runtime),
        cache=runtime.unit_cache,
        telemetry=telemetry,
    )
    matrix = dataset.detectability_matrix()
    n_detect = params["n_detect"]
    from ..core.ndetect import evaluate_cover, ndetect_cover

    cover = ndetect_cover(
        matrix,
        n_detect=n_detect,
        solver="greedy",
        saturate=params["saturate"],
    )
    robustness = evaluate_cover(
        dataset, sorted(cover), n_detect=n_detect
    )
    telemetry.ndetect_cover(
        n_detect, len(cover), robustness.n_fragile_entries
    )
    return {
        "target": label,
        "f0_hz": f0,
        "n_configs": plan.n_configs,
        "n_faults": plan.n_faults,
        "n_units": plan.n_units,
        "n_solves": dataset.n_solves,
        "n_factorizations": dataset.n_factorizations,
        "sm_fallbacks": dataset.sm_fallbacks,
        "fault_coverage": matrix.fault_coverage(),
        "undetectable_faults": list(matrix.undetectable_faults()),
        "n_detect": n_detect,
        "saturate": params["saturate"],
        "cover": [
            matrix.config_labels[matrix.row_of(i)] for i in sorted(cover)
        ],
        "cover_size": len(cover),
        "worst_case_margin": robustness.worst_case_margin,
        "fragile_faults": list(robustness.fragile_faults),
        "dataset": json.loads(dataset_to_json(dataset)),
    }


def run_tolerance(job: Job, runtime, telemetry: JobTelemetry) -> dict:
    """Catalog ε-calibration campaign through the shared runtime."""
    from ..campaign import execute_tolerance_plan, plan_tolerance_campaign

    params = job.params
    plan = plan_tolerance_campaign(
        names=params["circuits"],
        tolerance=params["tolerance"],
        n_samples=params["samples"],
        distribution=params["distribution"],
        seed=params["seed"],
        percentile=params["percentile"],
        decades=params["decades"],
        points_per_decade=params["ppd"],
        corners=params["corners"],
        max_corner_components=params["max_corner_components"],
    )
    telemetry.checkpoint()
    report = execute_tolerance_plan(
        plan,
        executor=job_executor(job, runtime),
        cache=runtime.tolerance_cache,
        telemetry=telemetry,
    )
    return report.to_json()


def run_diagnose(job: Job, runtime, telemetry: JobTelemetry) -> dict:
    """Trajectory-dictionary build (+ optional seeded fault location).

    The dictionary is built as cacheable campaign units through the
    shared runtime; when the job seeds a fault (``component`` +
    ``fault_deviation``) the observed response is simulated and located
    against the dictionary, and the matcher's verdict rides along in
    the result.
    """
    from ..analysis import decade_grid
    from ..dft import apply_multiconfiguration
    from ..diagnosis import (
        deviation_grid,
        execute_diagnosis_plan,
        locate_fault,
        plan_diagnosis_campaign,
    )
    from ..faults.model import DeviationFault

    params = job.params
    circuit, f0, label = resolve_circuit(params)
    telemetry.checkpoint()
    mcc = apply_multiconfiguration(circuit)
    grid = decade_grid(
        f0,
        decades_below=params["decades"],
        decades_above=params["decades"],
        points_per_decade=params["ppd"],
    )
    deviations = deviation_grid(span=params["span"], steps=params["steps"])
    plan = plan_diagnosis_campaign(mcc, grid, deviations=deviations)
    dictionary = execute_diagnosis_plan(
        plan,
        executor=job_executor(job, runtime),
        cache=runtime.diagnosis_cache,
        telemetry=telemetry,
    )
    result = {
        "target": label,
        "f0_hz": f0,
        "distance": params["distance"],
        "n_configs": dictionary.n_configs,
        "n_components": len(dictionary.components),
        "n_deviations": len(dictionary.deviations),
        "n_trajectory_points": dictionary.n_points,
        "deviation_step": dictionary.deviation_step,
        "n_solves": dictionary.n_solves,
        "n_factorizations": dictionary.n_factorizations,
        "diagnosis": None,
    }
    if params["component"] is not None:
        if params["component"] not in dictionary.components:
            raise JobValidationError(
                f"diagnose: component {params['component']!r} is not a "
                f"passive of {label!r} (have "
                f"{list(dictionary.components)})"
            )
        fault = DeviationFault(
            params["component"], params["fault_deviation"]
        )
        diagnosis = locate_fault(
            dictionary,
            mcc,
            fault,
            metric=params["distance"],
            ambiguity_tolerance=params["ambiguity"],
            epsilon=params["epsilon"],
        )
        payload = diagnosis.to_json()
        payload["injected"] = diagnosis.evaluate(
            params["component"], params["fault_deviation"]
        )
        result["diagnosis"] = payload
    return result


def run_verify(job: Job, runtime, telemetry: JobTelemetry) -> dict:
    """Differential-oracle sweep; checkpoints between cases."""
    from ..verify import run_verification

    params = job.params

    def progress(case) -> None:
        telemetry.checkpoint()

    report = run_verification(
        circuits=params["circuits"],
        n_random=params["random"],
        seed=params["seed"],
        epsilon=params["epsilon"],
        points_per_decade=params["ppd"],
        invariants=params["invariants"],
        progress=progress,
    )
    payload = json.loads(report.to_json())
    payload["passed"] = report.passed
    payload["summary"] = report.summary()
    return payload


RUNNERS = {
    "faultsim": run_faultsim,
    "tolerance": run_tolerance,
    "diagnose": run_diagnose,
    "verify": run_verify,
}


def execute_job(job: Job, runtime, telemetry: JobTelemetry) -> dict:
    """Dispatch one job to its runner; returns the JSON-able result."""
    return RUNNERS[job.kind](job, runtime, telemetry)
