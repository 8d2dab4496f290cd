"""Diagnosis campaign: plan determinism, caching, executor parity."""

import numpy as np
import pytest

from repro.analysis import ac_analysis, decade_grid
from repro.campaign import (
    CampaignTelemetry,
    ParallelExecutor,
    SerialExecutor,
    execute_unit,
)
from repro.diagnosis import (
    build_trajectory_dictionary,
    diagnosis_cache,
    diagnosis_unit_key,
    execute_diagnosis_plan,
    plan_diagnosis_campaign,
    run_diagnosis_campaign,
    trajectory_faults,
)
from repro.errors import CampaignError

from .conftest import make_mcc

COMPONENTS = ("R1a", "C1a", "R2b")
DEVIATIONS = (-0.25, 0.25)


@pytest.fixture(scope="module")
def context():
    bench, mcc = make_mcc("sallen_key")
    grid = decade_grid(bench.f0_hz, 1, 1, points_per_decade=6)
    return mcc, grid


@pytest.fixture
def cache(tmp_path):
    return diagnosis_cache(tmp_path / "cache")


def plan_for(context, **kwargs):
    mcc, grid = context
    kwargs.setdefault("components", COMPONENTS)
    kwargs.setdefault("deviations", DEVIATIONS)
    return plan_diagnosis_campaign(mcc, grid, **kwargs)


def assert_dictionaries_equal(a, b):
    assert a.config_labels == b.config_labels
    assert a.components == b.components
    assert a.deviations == b.deviations
    for index in a.nominal:
        assert np.array_equal(
            a.nominal[index].values, b.nominal[index].values
        )
    assert set(a.responses) == set(b.responses)
    for key, response in a.responses.items():
        assert np.array_equal(response.values, b.responses[key].values)


class TestPlan:
    def test_deterministic(self, context):
        a = plan_for(context)
        b = plan_for(context)
        assert a.keys == b.keys
        assert [u.unit_id for u in a.units] == ["C0", "C1", "C2"]

    def test_keys_use_exact_circuit_identity(self, context):
        """Values that differ beyond the netlist's 6 printed digits give
        different unit keys, so a cache never serves one for the other."""
        unit = plan_for(context).units[0]
        first = unit.circuit.passives()[0].name
        nudged = unit.circuit.with_scaled(first, 1.0 + 1e-7)
        assert nudged.netlist() == unit.circuit.netlist()
        args = (unit.output, unit.grid, unit.components, unit.deviations)
        assert diagnosis_unit_key(nudged, *args) != unit.key
        assert diagnosis_unit_key(unit.circuit, *args) == unit.key

    def test_content_changes_invalidate(self, context):
        mcc, grid = context
        base = plan_for(context)
        regridded = plan_diagnosis_campaign(
            mcc,
            decade_grid(1e3, 1, 1, points_per_decade=7),
            components=COMPONENTS,
            deviations=DEVIATIONS,
        )
        recomposed = plan_for(context, components=COMPONENTS[:2])
        redeviated = plan_for(context, deviations=(-0.1, 0.1))
        for other in (regridded, recomposed, redeviated):
            assert set(base.keys).isdisjoint(other.keys)

    def test_telemetry_compatible_properties(self, context):
        plan = plan_for(context)
        assert plan.n_units == plan.n_configs == 3
        assert plan.n_faults == len(COMPONENTS) * len(DEVIATIONS)
        assert plan.chunk_size is None
        unit = plan.units[0]
        assert unit.config_label == unit.unit_id == "C0"
        assert unit.n_faults == plan.n_faults
        assert "DiagnosisUnit" in repr(unit)


class TestExecute:
    def test_executor_dispatch(self, context):
        """The shared ``execute_unit`` entry point routes diagnosis units
        to the trajectory engine (this is what worker processes call)."""
        plan = plan_for(context)
        result = execute_unit(plan.units[0])
        assert result.key == plan.units[0].key
        assert result.config_label == "C0"
        assert result.n_solves == 1 + plan.n_faults
        assert len(result.responses) == plan.n_faults

    def test_campaign_matches_direct_build(self, context):
        mcc, grid = context
        direct = build_trajectory_dictionary(
            mcc, grid, components=COMPONENTS, deviations=DEVIATIONS
        )
        campaign = run_diagnosis_campaign(
            mcc, grid, components=COMPONENTS, deviations=DEVIATIONS
        )
        assert_dictionaries_equal(direct, campaign)
        assert campaign.n_solves == direct.n_solves

    def test_kernels_produce_identical_dictionaries(self, context):
        """Every unit's trajectories equal the per-point rebuild loop."""
        mcc, grid = context
        plan = plan_for(context)
        dictionary = execute_diagnosis_plan(plan)
        for unit in plan.units:
            assert np.array_equal(
                dictionary.nominal[unit.config_index].values,
                ac_analysis(unit.circuit, grid, output=unit.output).values,
            )
            for fault in trajectory_faults(COMPONENTS, DEVIATIONS):
                expected = ac_analysis(
                    fault.apply(unit.circuit), grid, output=unit.output
                )
                stored = dictionary.response(
                    unit.config_index, fault.target, fault.deviation
                )
                assert np.array_equal(stored.values, expected.values)
        assert dictionary.n_factorizations == (
            dictionary.n_solves * grid.n_points
        )

    def test_parallel_executor_matches_serial(self, context):
        mcc, grid = context
        serial = run_diagnosis_campaign(
            mcc, grid, components=COMPONENTS, deviations=DEVIATIONS,
            executor=SerialExecutor(),
        )
        parallel = run_diagnosis_campaign(
            mcc, grid, components=COMPONENTS, deviations=DEVIATIONS,
            executor=ParallelExecutor(jobs=2),
        )
        assert_dictionaries_equal(serial, parallel)

    def test_warm_cache_resumes_with_zero_solves(self, context, cache):
        mcc, grid = context
        telemetry = CampaignTelemetry()
        cold = run_diagnosis_campaign(
            mcc, grid, components=COMPONENTS, deviations=DEVIATIONS,
            cache=cache, telemetry=telemetry,
        )
        assert cache.writes == 3
        warm_telemetry = CampaignTelemetry()
        warm = run_diagnosis_campaign(
            mcc, grid, components=COMPONENTS, deviations=DEVIATIONS,
            cache=cache, telemetry=warm_telemetry,
        )
        assert warm.n_solves == 0
        assert warm.n_factorizations == 0
        counters = warm_telemetry.snapshot()
        assert counters["cache_hits"] == counters["units_total"] == 3
        assert counters["solves"] == 0
        assert_dictionaries_equal(cold, warm)

    def test_wrong_payload_type_is_a_miss(self, context, cache):
        import pickle

        plan = plan_for(context)
        key = plan.units[0].key
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps({"not": "a diagnosis result"}))
        assert key not in cache
        dictionary = execute_diagnosis_plan(plan, cache=cache)
        assert dictionary.n_solves > 0
        assert cache.corrupt == 1

    def test_failed_unit_raises_campaign_error(self, context, monkeypatch):
        from repro.diagnosis import campaign as campaign_module

        def explode(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(
            campaign_module, "trajectory_responses", explode
        )
        plan = plan_for(context)
        with pytest.raises(CampaignError, match="diagnosis unit"):
            execute_diagnosis_plan(plan, executor=SerialExecutor())
