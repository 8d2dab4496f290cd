"""Corrupted cache entries read as misses, whatever the damage.

One real entry of each payload the cache stores — a fault-simulation
unit, a tolerance unit, a diagnosis unit and a job record — is damaged
by a flipped bit in its checksum line, its JSON header or its array
body, or by a truncation.  Every damaged entry must read as a miss:
never an exception, never another value.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import decade_grid
from repro.campaign import (
    ResultCache,
    execute_unit,
    plan_campaign,
    plan_tolerance_campaign,
)
from repro.campaign.cache import encode
from repro.circuits import build
from repro.diagnosis import plan_diagnosis_campaign
from repro.faults import SimulationSetup, deviation_faults
from repro.service.jobs import JOB_RECORD, Job, job_record, normalize_params


def _entries():
    """``[(kind, key, entry bytes)]``, one per payload."""
    bench = build("sallen_key")
    mcc = bench.dft()
    grid = decade_grid(bench.f0_hz, 1, 1, points_per_decade=4)
    units = [
        plan_campaign(
            mcc,
            deviation_faults(bench.circuit, 0.2)[:3],
            SimulationSetup(grid=grid),
        ).units[1],
        plan_tolerance_campaign(
            names=["sallen_key"], n_samples=4, points_per_decade=4,
            max_corner_components=4,
        ).units[0],
        plan_diagnosis_campaign(
            mcc, grid, components=("R1a", "C1a"), deviations=(-0.2, 0.2)
        ).units[0],
    ]
    results = [execute_unit(unit) for unit in units]
    job = Job("faultsim", normalize_params("faultsim", {"target": "biquad"}))
    job.result = {"fault_coverage": 0.875, "cover": ["C0", "C4"]}
    results.append(job_record(job))
    assert [r.kind for r in results] == [
        "faultsim", "tolerance", "diagnosis", JOB_RECORD,
    ]
    return [(r.kind, r.key, encode(r)) for r in results]


ENTRIES = _entries()


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return ResultCache(tmp_path_factory.mktemp("corruption"))


def test_intact_entries_hit(cache):
    for kind, key, data in ENTRIES:
        cache.path_for(key).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(key).write_bytes(data)
        assert cache.get(key, kind) is not None


@st.composite
def damage(draw):
    """An entry and its damaged bytes."""
    kind, key, data = draw(st.sampled_from(ENTRIES))
    checksum_end = data.index(b"\n")
    header_end = data.index(b"\n", checksum_end + 1)
    regions = ["checksum", "header", "cut"]
    if header_end + 1 < len(data):  # results of values only have no body
        regions.append("body")
    region = draw(st.sampled_from(regions))
    if region == "cut":
        return kind, key, data[: draw(st.integers(0, len(data) - 1))]
    low, high = {
        "checksum": (0, checksum_end),
        "header": (checksum_end + 1, header_end),
        "body": (header_end + 1, len(data) - 1),
    }[region]
    position = draw(st.integers(low, high))
    damaged = bytearray(data)
    damaged[position] ^= 1 << draw(st.integers(0, 7))
    return kind, key, bytes(damaged)


@settings(max_examples=200, deadline=None)
@given(damage())
def test_damaged_entry_is_a_miss(cache, case):
    kind, key, data = case
    path = cache.path_for(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    corrupt = cache.corrupt
    assert cache.get(key, kind) is None
    assert cache.corrupt == corrupt + 1
    assert not path.exists()
