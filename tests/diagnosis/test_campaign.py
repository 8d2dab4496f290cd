"""Diagnosis campaign: plan determinism, caching, executor parity."""

import numpy as np
import pytest

from repro.analysis import ac_analysis, decade_grid
from repro.campaign import (
    CampaignTelemetry,
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
    UnitResult,
    execute_unit,
)
from repro.dft import apply_multiconfiguration
from repro.diagnosis import (
    DIAGNOSIS_KIND,
    build_trajectory_dictionary,
    execute_diagnosis_plan,
    plan_diagnosis_campaign,
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
    return ResultCache(tmp_path / "cache")


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
    assert np.array_equal(a.responses, b.responses)


class TestPlan:
    def test_deterministic(self, context):
        a = plan_for(context)
        b = plan_for(context)
        assert a.keys == b.keys
        assert [u.unit_id for u in a.units] == ["C0", "C1", "C2"]

    def test_keys_use_exact_circuit_identity(self, context):
        """Values that differ beyond the netlist's 6 printed digits give
        different unit keys, so a cache never serves one for the other."""
        _, grid = context
        unit = plan_for(context).units[0]
        bench, _ = make_mcc("sallen_key")
        first = bench.circuit.passives()[0].name
        nudged = apply_multiconfiguration(
            bench.circuit.with_scaled(first, 1.0 + 1e-7),
            chain=bench.chain,
            input_node=bench.input_node,
        )
        other = plan_diagnosis_campaign(
            nudged, grid, components=COMPONENTS, deviations=DEVIATIONS
        ).units[0]
        circuit = unit.args["circuit"]
        assert other.args["circuit"].netlist() == circuit.netlist()
        assert other.key != unit.key
        assert plan_for(context).units[0].key == unit.key

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
        """Telemetry reads the generic unit fields: one configuration per
        unit, sized by its trajectory points."""
        plan = plan_for(context)
        assert plan.n_units == 3
        assert plan.describe().startswith("diagnosis plan: 3 configuration")
        unit = plan.units[0]
        assert unit.kind is DIAGNOSIS_KIND
        assert unit.label == unit.unit_id == "C0"
        assert unit.size == len(COMPONENTS) * len(DEVIATIONS)
        assert "diagnosis C0" in repr(unit)


class TestExecute:
    def test_executor_dispatch(self, context):
        """The shared ``execute_unit`` entry point routes diagnosis units
        to the trajectory engine (this is what worker processes call)."""
        _, grid = context
        plan = plan_for(context)
        result = execute_unit(plan.units[0])
        n_points = len(COMPONENTS) * len(DEVIATIONS)
        assert result.key == plan.units[0].key
        assert result.kind == "diagnosis"
        assert result.n_solves == 1 + n_points
        assert result.arrays["responses"].shape == (n_points, grid.n_points)

    def test_campaign_matches_direct_build(self, context):
        """The one-call build is the planned build ``repro diagnose``
        runs: plan, then execute and assemble."""
        mcc, grid = context
        direct = build_trajectory_dictionary(
            mcc, grid, components=COMPONENTS, deviations=DEVIATIONS
        )
        campaign = execute_diagnosis_plan(plan_for(context))
        assert_dictionaries_equal(direct, campaign)
        assert campaign.n_solves == direct.n_solves
        assert campaign.n_factorizations == direct.n_factorizations

    def test_kernels_produce_identical_dictionaries(self, context):
        """Every unit's trajectories equal the per-point rebuild loop."""
        mcc, grid = context
        plan = plan_for(context)
        dictionary = execute_diagnosis_plan(plan)
        for unit, index in zip(plan.units, plan.config_indices):
            circuit, output = unit.args["circuit"], unit.args["output"]
            assert np.array_equal(
                dictionary.nominal[index].values,
                ac_analysis(circuit, grid, output=output).values,
            )
            for fault in trajectory_faults(COMPONENTS, DEVIATIONS):
                expected = ac_analysis(
                    fault.apply(circuit), grid, output=output
                )
                stored = dictionary.response(
                    index, fault.target, fault.deviation
                )
                assert np.array_equal(stored.values, expected.values)
        assert dictionary.n_factorizations == (
            dictionary.n_solves * grid.n_points
        )

    def test_parallel_executor_matches_serial(self, context):
        mcc, grid = context
        serial = build_trajectory_dictionary(
            mcc, grid, components=COMPONENTS, deviations=DEVIATIONS,
            executor=SerialExecutor(),
        )
        parallel = build_trajectory_dictionary(
            mcc, grid, components=COMPONENTS, deviations=DEVIATIONS,
            executor=ParallelExecutor(jobs=2),
        )
        assert_dictionaries_equal(serial, parallel)

    def test_warm_cache_resumes_with_zero_solves(self, context, cache):
        mcc, grid = context
        telemetry = CampaignTelemetry()
        cold = build_trajectory_dictionary(
            mcc, grid, components=COMPONENTS, deviations=DEVIATIONS,
            cache=cache, telemetry=telemetry,
        )
        assert cache.writes == 3
        warm_telemetry = CampaignTelemetry()
        warm = build_trajectory_dictionary(
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
        """A tolerance result squatting on a diagnosis key is
        corruption, not a hit."""
        plan = plan_for(context)
        key = plan.units[0].key
        cache.put(key, UnitResult(kind="tolerance", key=key))
        assert not cache.contains(key, "diagnosis")
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
