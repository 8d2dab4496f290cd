"""1-vs-N worker determinism: scheduling must never change answers.

The same fixed job list is run through a 1-worker scheduler and a
3-worker scheduler, each on its own cache directory.  The contract:

* every job's **result payload is byte-identical** (compared as
  canonical JSON) across scheduler widths;
* the **unit caches hold identical contents** — same relative paths,
  same file bytes — because unit keys are content hashes over inputs
  only, and the entries of deterministic simulations are byte-stable;
* the **job-record caches agree** on key-set and result payloads
  (record bytes differ legitimately: a record's ``wall_s`` measures
  wall-clock).

Solver-effort counters (``n_solves``/``n_factorizations``/
``sm_fallbacks``) are
bookkeeping, not answers: the list's faultsim jobs share unit keys
(ε is post-processing), so how much work each *job* did depends
on which job warmed the shared cache first — that ordering is exactly
what worker count changes.  The comparisons therefore scrub effort
counters and assert byte-identity on everything else.
"""

import hashlib
import json

import pytest

from repro.campaign.cache import decode
from repro.service.jobs import DONE, JOB_RECORD
from repro.service.scheduler import JobScheduler, ServiceRuntime

#: every kind once, and three faultsim jobs that differ only in epsilon
#: (so they share unit keys)
JOBS = (
    ("diagnose", {"target": "sallen_key", "ppd": 6, "decades": 1.0,
                  "steps": 2, "epsilon": 0.1}),
    ("faultsim", {"target": "sallen_key", "ppd": 6, "decades": 1.0,
                  "epsilon": 0.1}),
    ("tolerance", {"circuits": ["sallen_key"], "samples": 16, "ppd": 4,
                   "decades": 0.5, "seed": 2026,
                   "max_corner_components": 4, "percentile": 95.0}),
    ("faultsim", {"target": "sallen_key", "ppd": 6, "decades": 1.0,
                  "epsilon": 0.08}),
    ("faultsim", {"target": "sallen_key", "ppd": 6, "decades": 1.0,
                  "epsilon": 0.12}),
)

#: effort bookkeeping — cache-warmth-dependent, excluded from identity
EFFORT_KEYS = frozenset({"n_solves", "n_factorizations", "sm_fallbacks"})


def scrub(value):
    """Drop solver-effort counters, recursively, from a result tree."""
    if isinstance(value, dict):
        return {
            key: scrub(child)
            for key, child in value.items()
            if key not in EFFORT_KEYS
        }
    if isinstance(value, list):
        return [scrub(child) for child in value]
    return value


def canonical(result):
    return json.dumps(scrub(result), sort_keys=True)


def run_jobs(cache_dir, workers):
    """Execute :data:`JOBS`; returns {job_key: result_json}."""
    runtime = ServiceRuntime(cache_dir=cache_dir)
    scheduler = JobScheduler(runtime, queue_limit=16, workers=workers)
    try:
        jobs = [
            scheduler.submit(kind, params)
            for kind, params in JOBS
        ]
        assert scheduler.wait_idle(timeout=300.0)
        for job in jobs:
            assert job.state == DONE, f"{job.kind}: {job.error}"
        return {job.key: canonical(job.result) for job in jobs}
    finally:
        scheduler.shutdown(drain=False, timeout=10.0)
        runtime.close()


def cache_digest(cache_dir, subdir):
    """{relative path: sha256} over one cache directory's entries."""
    root = cache_dir / subdir
    return {
        str(path.relative_to(root)): hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
        for path in sorted(root.glob("**/*.entry"))
    }


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    serial_dir = tmp_path_factory.mktemp("serial") / "cache"
    wide_dir = tmp_path_factory.mktemp("wide") / "cache"
    serial = run_jobs(serial_dir, workers=1)
    wide = run_jobs(wide_dir, workers=3)
    return serial_dir, wide_dir, serial, wide


def test_results_are_byte_identical(runs):
    _, _, serial, wide = runs
    assert serial.keys() == wide.keys()
    for key in serial:
        assert serial[key] == wide[key]


def test_unit_caches_hold_identical_bytes(runs):
    """One unit cache holds every kind's units, byte for byte alike."""
    serial_dir, wide_dir, _, _ = runs
    serial_entries = cache_digest(serial_dir, "units")
    wide_entries = cache_digest(wide_dir, "units")
    kinds = {
        json.loads(path.read_bytes().split(b"\n", 2)[1])["kind"]
        for path in (serial_dir / "units").glob("**/*.entry")
    }
    assert kinds == {"faultsim", "tolerance", "diagnosis"}
    assert serial_entries == wide_entries


def test_job_record_caches_agree_on_results(runs):
    serial_dir, wide_dir, _, _ = runs

    def records(cache_dir):
        entries = {}
        for path in sorted((cache_dir / "jobs").glob("**/*.entry")):
            record = decode(path.read_bytes(), JOB_RECORD, path.stem)
            entries[record.key] = canonical(record.values["result"])
        return entries

    serial_records = records(serial_dir)
    wide_records = records(wide_dir)
    assert serial_records.keys() == wide_records.keys()
    assert serial_records == wide_records


def test_warm_cache_answers_the_whole_mix_without_solving(runs):
    """Re-running the jobs on either cache directory is answered fully
    from the job-record cache — zero new simulation."""
    serial_dir, _, serial, _ = runs
    runtime = ServiceRuntime(cache_dir=serial_dir)
    scheduler = JobScheduler(runtime, queue_limit=16, workers=3)
    try:
        jobs = [
            scheduler.submit(kind, params)
            for kind, params in JOBS
        ]
        for job in jobs:
            assert job.state == DONE
            assert job.from_cache
        assert runtime.telemetry.snapshot()["solves"] == 0
        assert {
            job.key: canonical(job.result) for job in jobs
        } == serial
    finally:
        scheduler.shutdown(drain=False, timeout=10.0)
        runtime.close()
