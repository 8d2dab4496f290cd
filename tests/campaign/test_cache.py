"""Cache correctness: key stability, invalidation, corruption recovery."""

import dataclasses
import os
import pickle

import numpy as np
import pytest

from repro.analysis import decade_grid
from repro.campaign import (
    CampaignTelemetry,
    ResultCache,
    UnitResult,
    plan_campaign,
)
from repro.campaign.cache import encode
from repro.faults import SimulationSetup, simulate_faults

KIND = "faultsim"


class Planted:
    """A pickle that makes a directory when it is unpickled."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return (os.mkdir, (self.path,))


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestStore:
    def test_roundtrip(
        self, cache, campaign_mcc, campaign_faults, campaign_setup
    ):
        dataset = simulate_faults(
            campaign_mcc, campaign_faults, campaign_setup, cache=cache
        )
        plan = plan_campaign(
            campaign_mcc, campaign_faults, campaign_setup
        )
        for unit in plan.units:
            stored = cache.get(unit.key, KIND)
            assert isinstance(stored, UnitResult)
            assert stored.key == unit.key
            assert unit.kind.produced(stored)
            assert len(stored.arrays["nominal"]) == plan.setup.grid.n_points
            assert all(
                len(stored.arrays[name]) == len(unit.args["labels"])
                for name in unit.kind.arrays[1:]
            )
            assert not any(a.flags.writeable for a in stored.arrays.values())
        assert cache.writes == plan.n_units
        assert dataset.n_solves > 0

    def test_missing_key_is_a_miss(self, cache):
        assert cache.get("0" * 64, KIND) is None
        assert cache.misses == 1

    def test_clear(self, cache, campaign_mcc, campaign_faults, campaign_setup):
        simulate_faults(
            campaign_mcc, campaign_faults, campaign_setup, cache=cache
        )
        assert len(cache) == 7
        assert cache.clear() == 7
        assert len(cache) == 0

    def test_clear_sweeps_stale_tmp_files(
        self, cache, campaign_mcc, campaign_faults, campaign_setup
    ):
        """A writer killed mid-``put`` leaves a ``.tmp`` behind; ``clear``
        must sweep it rather than leak it forever."""
        simulate_faults(
            campaign_mcc, campaign_faults, campaign_setup, cache=cache
        )
        shard = sorted(cache.directory.glob("*/*.entry"))[0].parent
        stale = shard / "orphaned0000.tmp"
        stale.write_bytes(b"half-written entry")
        assert cache.clear() == 7  # .tmp files don't count as entries
        assert not stale.exists()
        assert list(cache.directory.glob("*/*")) == []


class TestResume:
    def test_warm_rerun_is_all_hits_and_zero_solves(
        self, cache, campaign_mcc, campaign_faults, campaign_setup
    ):
        cold = simulate_faults(
            campaign_mcc, campaign_faults, campaign_setup, cache=cache
        )
        telemetry = CampaignTelemetry()
        warm = simulate_faults(
            campaign_mcc,
            campaign_faults,
            campaign_setup,
            cache=cache,
            telemetry=telemetry,
        )
        assert warm.n_solves == 0
        counters = telemetry.snapshot()
        assert counters["cache_hits"] == counters["units_total"] == 7
        assert counters["solves"] == 0
        assert np.array_equal(
            warm.detectability_matrix().data,
            cold.detectability_matrix().data,
        )
        assert np.array_equal(
            warm.omega_table().data, cold.omega_table().data
        )

    def test_partial_resume_after_interruption(
        self, cache, campaign_mcc, campaign_faults, campaign_setup
    ):
        """Only the configurations missing from the cache re-simulate."""
        configs = campaign_mcc.configurations(
            include_functional=True, include_transparent=False
        )
        simulate_faults(
            campaign_mcc,
            campaign_faults,
            campaign_setup,
            configs=configs[:3],
            cache=cache,
        )
        telemetry = CampaignTelemetry()
        full = simulate_faults(
            campaign_mcc,
            campaign_faults,
            campaign_setup,
            configs=configs,
            cache=cache,
            telemetry=telemetry,
        )
        assert telemetry.snapshot()["cache_hits"] == 3
        assert telemetry.snapshot()["solves"] == full.n_solves
        expected = (len(configs) - 3) * (len(campaign_faults) + 1)
        assert full.n_solves == expected

    def test_epsilon_change_invalidates(
        self, cache, campaign_mcc, campaign_faults, campaign_setup
    ):
        simulate_faults(
            campaign_mcc, campaign_faults, campaign_setup, cache=cache
        )
        tighter = SimulationSetup(
            grid=campaign_setup.grid, epsilon=0.05
        )
        telemetry = CampaignTelemetry()
        simulate_faults(
            campaign_mcc,
            campaign_faults,
            tighter,
            cache=cache,
            telemetry=telemetry,
        )
        assert telemetry.snapshot()["cache_hits"] == 0

    def test_grid_change_invalidates(
        self,
        cache,
        campaign_mcc,
        campaign_faults,
        campaign_setup,
        campaign_bench,
    ):
        simulate_faults(
            campaign_mcc, campaign_faults, campaign_setup, cache=cache
        )
        denser = SimulationSetup(
            grid=decade_grid(
                campaign_bench.f0_hz, 2, 2, points_per_decade=25
            )
        )
        telemetry = CampaignTelemetry()
        simulate_faults(
            campaign_mcc,
            campaign_faults,
            denser,
            cache=cache,
            telemetry=telemetry,
        )
        assert telemetry.snapshot()["cache_hits"] == 0


class TestCorruption:
    def _any_entry(self, cache):
        paths = sorted(cache.directory.glob("*/*.entry"))
        assert paths
        return paths[0]

    def test_truncated_entry_is_a_miss_not_a_crash(
        self, cache, campaign_mcc, campaign_faults, campaign_setup
    ):
        baseline = simulate_faults(
            campaign_mcc, campaign_faults, campaign_setup, cache=cache
        )
        path = self._any_entry(cache)
        path.write_bytes(path.read_bytes()[:-9])
        telemetry = CampaignTelemetry()
        recovered = simulate_faults(
            campaign_mcc,
            campaign_faults,
            campaign_setup,
            cache=cache,
            telemetry=telemetry,
        )
        assert telemetry.snapshot()["cache_hits"] == 6
        assert cache.corrupt == 1
        assert np.array_equal(
            recovered.detectability_matrix().data,
            baseline.detectability_matrix().data,
        )

    def test_wrong_payload_type_is_a_miss(
        self, cache, campaign_mcc, campaign_faults, campaign_setup
    ):
        """A well-formed entry of another kind under the key is a miss."""
        simulate_faults(
            campaign_mcc, campaign_faults, campaign_setup, cache=cache
        )
        path = self._any_entry(cache)
        key = path.stem
        stored = cache.get(key, KIND)
        path.write_bytes(encode(dataclasses.replace(stored, kind="tolerance")))
        assert cache.get(key, KIND) is None
        assert cache.corrupt == 1
        # the corrupted entry was evicted
        assert not path.exists()

    def test_planted_pickle_is_never_unpickled(self, cache, tmp_path):
        """Whatever sits at an entry's path is parsed as data: a pickle
        planted there is a miss, and its payload never runs."""
        key = "ab" * 32
        sentinel = tmp_path / "sentinel"
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps(Planted(sentinel)))
        assert cache.get(key, KIND) is None
        assert cache.corrupt == 1
        assert not sentinel.exists()

    def test_key_mismatch_is_a_miss(
        self, cache, campaign_mcc, campaign_faults, campaign_setup
    ):
        simulate_faults(
            campaign_mcc, campaign_faults, campaign_setup, cache=cache
        )
        paths = sorted(cache.directory.glob("*/*.entry"))
        first, second = paths[0], paths[1]
        second.write_bytes(first.read_bytes())
        assert cache.get(second.stem, KIND) is None
        assert cache.corrupt == 1

    def test_contains_agrees_with_get_on_corrupt_entry(
        self, cache, campaign_mcc, campaign_faults, campaign_setup
    ):
        """``contains`` must never promise a hit that ``get`` would
        then refuse: membership runs the same validation."""
        simulate_faults(
            campaign_mcc, campaign_faults, campaign_setup, cache=cache
        )
        path = self._any_entry(cache)
        key = path.stem
        # healthy entry: both agree it is present
        assert cache.contains(key, KIND)
        path.write_bytes(b"\x80\x04 not an entry")
        # corrupt: membership says absent...
        assert not cache.contains(key, KIND)
        assert cache.get(key, KIND) is None  # ...exactly as get() does
        assert not path.exists()  # and the probe evicted it

    def test_contains_does_not_skew_hit_miss_counters(
        self, cache, campaign_mcc, campaign_faults, campaign_setup
    ):
        simulate_faults(
            campaign_mcc, campaign_faults, campaign_setup, cache=cache
        )
        hits, misses = cache.hits, cache.misses
        key = self._any_entry(cache).stem
        assert cache.contains(key, KIND)
        assert not cache.contains("f" * 64, KIND)
        assert (cache.hits, cache.misses) == (hits, misses)

    def test_unreadable_entry_is_a_miss(
        self, cache, campaign_mcc, campaign_faults, campaign_setup
    ):
        """A directory squatting on the entry path cannot crash a get."""
        simulate_faults(
            campaign_mcc, campaign_faults, campaign_setup, cache=cache
        )
        path = self._any_entry(cache)
        key = path.stem
        path.unlink()
        path.mkdir()
        assert cache.get(key, KIND) is None
