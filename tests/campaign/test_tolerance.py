"""Tolerance campaign: plan determinism, caching, oracle equivalence."""

from itertools import product

import numpy as np
import pytest

from repro.analysis import ac_analysis, sample_factors

from repro.campaign import (
    TOLERANCE_KIND,
    CampaignTelemetry,
    ResultCache,
    SerialExecutor,
    UnitResult,
    execute_tolerance_plan,
    execute_unit,
    plan_tolerance_campaign,
)
from repro.errors import CampaignError
from repro.verify import reference_scaled_responses

NAMES = ["biquad", "state_variable"]
FAST = dict(n_samples=12, points_per_decade=8)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestPlan:
    def test_deterministic(self):
        a = plan_tolerance_campaign(names=NAMES, **FAST)
        b = plan_tolerance_campaign(names=NAMES, **FAST)
        assert a.keys == b.keys
        assert [u.unit_id for u in a.units] == NAMES

    def test_seed_and_tolerance_invalidate(self):
        base = plan_tolerance_campaign(names=NAMES, **FAST)
        reseeded = plan_tolerance_campaign(names=NAMES, seed=1, **FAST)
        retoleranced = plan_tolerance_campaign(
            names=NAMES, tolerance=0.01, **FAST
        )
        assert set(base.keys).isdisjoint(reseeded.keys)
        assert set(base.keys).isdisjoint(retoleranced.keys)

    def test_default_names_cover_catalog(self):
        from repro.circuits import catalog

        plan = plan_tolerance_campaign(**FAST)
        assert [u.label for u in plan.units] == list(catalog())

    def test_corner_pass_capped_by_component_count(self):
        plan = plan_tolerance_campaign(
            names=["biquad", "leapfrog"], **FAST
        )
        by_name = {u.label: u.args for u in plan.units}
        assert by_name["biquad"]["corners"]  # 8 passives
        assert not by_name["leapfrog"]["corners"]  # 17 passives

    def test_validation(self):
        with pytest.raises(CampaignError):
            plan_tolerance_campaign(names=NAMES, tolerance=-1.0)
        with pytest.raises(CampaignError):
            plan_tolerance_campaign(names=NAMES, tolerance=1.0)
        with pytest.raises(CampaignError):
            plan_tolerance_campaign(names=NAMES, distribution="levy")
        with pytest.raises(CampaignError):
            plan_tolerance_campaign(names=NAMES, n_samples=0)
        with pytest.raises(CampaignError):
            plan_tolerance_campaign(names=NAMES, percentile=0.0)
        with pytest.raises(CampaignError):
            plan_tolerance_campaign(names=[])

    def test_telemetry_compatible_properties(self):
        """Telemetry reads the generic unit fields: one circuit per
        unit, labelled by its name, simulating no fault."""
        plan = plan_tolerance_campaign(names=NAMES, **FAST)
        assert plan.n_units == 2
        assert plan.describe().startswith("tolerance plan: 2 circuit(s)")
        unit = plan.units[0]
        assert unit.kind is TOLERANCE_KIND
        assert unit.label == unit.unit_id == "biquad"
        assert unit.size == 0


class TestExecute:
    def test_executor_dispatch(self):
        """The shared ``execute_unit`` entry point routes tolerance units
        to the tolerance engine (this is what worker processes call)."""
        plan = plan_tolerance_campaign(names=["biquad"], **FAST)
        result = execute_unit(plan.units[0])
        assert result.key == plan.units[0].key
        assert result.values["suggested_epsilon"] > 0.0
        assert result.n_solves == 1 + 12 + 1 + result.values["n_corners"]

    def test_report_assembles_in_plan_order(self):
        report = execute_tolerance_plan(
            plan_tolerance_campaign(names=NAMES, **FAST)
        )
        assert [row["name"] for row in report.rows] == NAMES
        assert report.n_solves > 0
        rendered = report.render()
        for name in NAMES:
            assert name in rendered
        payload = report.to_json()
        assert len(payload["circuits"]) == 2
        assert payload["circuits"][0]["suggested_epsilon"] > 0.0

    def test_kernels_produce_identical_reports(self):
        """Every row equals the per-sample rebuild oracle's figures."""
        plan = plan_tolerance_campaign(names=NAMES, **FAST)
        report = execute_tolerance_plan(plan)
        for unit, row in zip(plan.units, report.rows):
            args = unit.args
            circuit, grid = args["circuit"], args["grid"]
            names = [e.name for e in circuit.passives()]
            nominal = ac_analysis(circuit, grid)

            def rows(factors, measure):
                return np.vstack(
                    [
                        measure(response)
                        for response in reference_scaled_responses(
                            circuit, grid, names, factors
                        )
                    ]
                )

            factors = sample_factors(
                np.random.default_rng(args["seed"]), args["n_samples"],
                len(names), args["tolerance"], args["distribution"],
            )
            maxima = rows(factors, nominal.relative_deviation).max(axis=1)
            assert row["suggested_epsilon"] == float(
                np.percentile(maxima, args["percentile"])
            )
            assert row["max_deviation"] == float(maxima.max())
            if args["corners"]:
                signs = np.asarray(list(product((-1, 1), repeat=len(names))))
                corners = 1.0 + signs * args["tolerance"]
                assert row["epsilon_floor"] == float(
                    rows(corners, nominal.relative_deviation).max()
                )
                assert row["band_epsilon_floor"] == float(
                    rows(corners, nominal.band_deviation).max()
                )
        assert report.n_factorizations > 0

    def test_keys_use_exact_circuit_identity(self, monkeypatch):
        """Values that differ beyond the netlist's 6 printed digits give
        different unit keys, so a cache never serves one for the other."""
        import dataclasses

        from repro.campaign import tolerance as tolerance_module

        unit = plan_tolerance_campaign(names=["sallen_key"], **FAST).units[0]
        circuit = unit.args["circuit"]
        first = circuit.passives()[0].name
        nudged = circuit.with_scaled(first, 1.0 + 1e-7)
        assert nudged.netlist() == circuit.netlist()
        build = tolerance_module.build
        monkeypatch.setattr(
            tolerance_module,
            "build",
            lambda name: dataclasses.replace(build(name), circuit=nudged),
        )
        other = plan_tolerance_campaign(names=["sallen_key"], **FAST).units[0]
        assert other.key != unit.key
        monkeypatch.undo()
        again = plan_tolerance_campaign(names=["sallen_key"], **FAST).units[0]
        assert again.key == unit.key

    def test_warm_cache_resumes_with_zero_solves(self, cache):
        telemetry = CampaignTelemetry()
        cold = execute_tolerance_plan(
            plan_tolerance_campaign(names=NAMES, **FAST),
            cache=cache,
            telemetry=telemetry,
        )
        assert cache.writes == 2
        warm_telemetry = CampaignTelemetry()
        warm = execute_tolerance_plan(
            plan_tolerance_campaign(names=NAMES, **FAST),
            cache=cache,
            telemetry=warm_telemetry,
        )
        assert warm.n_solves == 0
        assert warm.n_factorizations == 0
        counters = warm_telemetry.snapshot()
        assert counters["cache_hits"] == counters["units_total"] == 2
        assert counters["solves"] == 0
        assert warm.rows == cold.rows

    def test_wrong_payload_type_is_a_miss(self, cache):
        """A fault-simulation result squatting on a tolerance key is
        corruption, not a hit."""
        plan = plan_tolerance_campaign(names=["biquad"], **FAST)
        key = plan.units[0].key
        cache.put(key, UnitResult(kind="faultsim", key=key))
        assert not cache.contains(key, "tolerance")
        report = execute_tolerance_plan(plan, cache=cache)
        assert report.n_solves > 0
        assert cache.corrupt == 1

    def test_failed_unit_raises_campaign_error(self, monkeypatch):
        from repro.campaign import tolerance as tolerance_module

        def explode(unit):
            raise RuntimeError("boom")

        monkeypatch.setattr(
            tolerance_module, "monte_carlo_tolerance", explode
        )
        plan = plan_tolerance_campaign(names=["biquad"], **FAST)
        with pytest.raises(CampaignError, match="tolerance unit"):
            execute_tolerance_plan(plan, executor=SerialExecutor())

    def test_suggested_epsilon_matches_direct_analysis(self):
        """The campaign reports exactly what the analysis layer computes
        — no re-derivation drift."""
        from repro.analysis import decade_grid, monte_carlo_tolerance
        from repro.circuits import build

        report = execute_tolerance_plan(
            plan_tolerance_campaign(names=["biquad"], **FAST)
        )
        bench = build("biquad")
        grid = decade_grid(bench.f0_hz, 1, 1, points_per_decade=8)
        direct = monte_carlo_tolerance(
            bench.circuit, grid, tolerance=0.05, n_samples=12, seed=2026
        )
        row = report.row_for("biquad")
        assert row["suggested_epsilon"] == direct.suggested_epsilon(95.0)
        assert row["suggested_epsilon"] > 0.0
        assert row["max_deviation"] == float(
            np.max(direct.max_deviation_per_sample())
        )
