"""Tests for the per-table/figure experiment drivers.

Published mode must reproduce the paper's numbers exactly; simulated mode
must reproduce the qualitative shape documented in EXPERIMENTS.md.
"""

import pytest

from repro.experiments import (
    exp_covering,
    exp_fig5,
    exp_graph1,
    exp_graph2,
    exp_graph3,
    exp_graph4,
    exp_headline,
    exp_table1,
    exp_table2,
    exp_table3,
    exp_table4,
)
from repro.errors import ReproError
from repro.experiments.paper import PaperScenario, check_mode


def values_of(report):
    return report.values


class TestStructuralDrivers:
    def test_table1_exact(self):
        report = exp_table1.run()
        assert report.values["matching_rows.measured"] == 8.0

    def test_table3_exact(self):
        report = exp_table3.run()
        assert report.values["matching_rows.measured"] == 7.0


class TestPublishedMode:
    def test_graph1(self, paper_scenario):
        v = values_of(exp_graph1.run("published", scenario=paper_scenario))
        assert v["fault_coverage.measured"] == pytest.approx(0.25)
        assert v["avg_omega_detectability.measured"] == pytest.approx(
            0.125
        )

    def test_fig5(self, paper_scenario):
        v = values_of(exp_fig5.run("published", scenario=paper_scenario))
        assert v["matching_cells.measured"] == 56.0
        assert v["max_fault_coverage.measured"] == 1.0

    def test_table2(self, paper_scenario):
        v = values_of(exp_table2.run("published", scenario=paper_scenario))
        assert v["support_equals_fig5_matrix.measured"] == 1.0
        assert v["avg_omega_best_case.measured"] == pytest.approx(
            0.6825
        )

    def test_graph2(self, paper_scenario):
        v = values_of(exp_graph2.run("published", scenario=paper_scenario))
        assert v["improvement_factor.measured"] == pytest.approx(
            5.46, abs=0.01
        )

    def test_covering(self, paper_scenario):
        v = values_of(
            exp_covering.run("published", scenario=paper_scenario)
        )
        assert v["essentials_are_C2.measured"] == 1.0
        assert v["minimal_covers_match_paper.measured"] == 1.0
        assert v["all_covers_reach_max_coverage.measured"] == 1.0

    def test_graph3(self, paper_scenario):
        v = values_of(exp_graph3.run("published", scenario=paper_scenario))
        assert v["selected_is_C2_C5.measured"] == 1.0
        assert v["avg_omega_selected.measured"] == pytest.approx(0.325)
        assert v["avg_omega_runner_up.measured"] == pytest.approx(0.30)

    def test_table4(self, paper_scenario):
        v = values_of(exp_table4.run("published", scenario=paper_scenario))
        assert v["opamps_are_OP1_OP2.measured"] == 1.0
        assert v["permitted_configs_match.measured"] == 1.0
        assert v["table4_matches.measured"] == 1.0
        assert v["avg_omega_partial.measured"] == pytest.approx(0.525)

    def test_graph4(self, paper_scenario):
        v = values_of(exp_graph4.run("published", scenario=paper_scenario))
        assert v["avg_omega_full.measured"] == pytest.approx(0.6825)
        assert v["avg_omega_partial.measured"] == pytest.approx(0.525)
        assert v["partial_keeps_max_coverage.measured"] == 1.0

    def test_headline(self, paper_scenario):
        v = values_of(
            exp_headline.run("published", scenario=paper_scenario)
        )
        for key in (
            "fc_initial",
            "fc_dft",
            "avg_omega_initial",
            "avg_omega_partial",
        ):
            assert v[f"{key}.measured"] == pytest.approx(
                v[f"{key}.paper"], abs=0.001
            )


class TestSimulatedMode:
    def test_graph1_shape(self, paper_scenario):
        """Initial testability is poor: FC 25%, only fR1/fR4."""
        v = values_of(exp_graph1.run("simulated", scenario=paper_scenario))
        assert v["fault_coverage.measured"] == pytest.approx(0.25)
        assert 0.05 < v["avg_omega_detectability.measured"] < 0.20

    def test_fig5_c0_row_matches(self, paper_scenario):
        v = values_of(exp_fig5.run("simulated", scenario=paper_scenario))
        assert v["c0_row_matches_paper.measured"] == 1.0

    def test_table2_consistency(self, paper_scenario):
        v = values_of(exp_table2.run("simulated", scenario=paper_scenario))
        assert v["support_equals_fig5_matrix.measured"] == 1.0

    def test_graph2_improvement(self, paper_scenario):
        """The DFT multiplies <w-det> by a large factor (paper: 5.5x)."""
        v = values_of(exp_graph2.run("simulated", scenario=paper_scenario))
        assert v["improvement_factor.measured"] > 3.0

    def test_covering_valid(self, paper_scenario):
        v = values_of(
            exp_covering.run("simulated", scenario=paper_scenario)
        )
        assert v["all_covers_reach_max_coverage.measured"] == 1.0
        assert v["n_irredundant_covers"] >= 1

    def test_graph3_selection_keeps_coverage(self, paper_scenario):
        v = values_of(exp_graph3.run("simulated", scenario=paper_scenario))
        assert v["selection_coverage.measured"] == pytest.approx(
            v["selection_coverage.paper"]
        )

    def test_table4_partial_dft(self, paper_scenario):
        v = values_of(exp_table4.run("simulated", scenario=paper_scenario))
        assert v["partial_reaches_max_coverage.measured"] == 1.0
        assert v["n_configurable_opamps"] <= 3

    def test_graph4_partial_cheaper_than_full(self, paper_scenario):
        v = values_of(exp_graph4.run("simulated", scenario=paper_scenario))
        assert (
            v["avg_omega_partial.measured"]
            <= v["avg_omega_full.measured"]
        )
        assert v["partial_keeps_max_coverage.measured"] == 1.0

    def test_headline_shape(self, paper_scenario):
        v = values_of(
            exp_headline.run("simulated", scenario=paper_scenario)
        )
        # FC improves strongly; <w-det> improves strongly.
        assert v["fc_initial.measured"] == pytest.approx(0.25)
        assert v["fc_dft.measured"] >= 0.85
        assert (
            v["avg_omega_brute_force.measured"]
            > 3 * v["avg_omega_initial.measured"]
        )


class TestModeValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ReproError):
            check_mode("interpolated")

    def test_drivers_reject_bad_mode(self, paper_scenario):
        with pytest.raises(ReproError):
            exp_graph1.run("bogus", scenario=paper_scenario)


class TestReportRendering:
    def test_reports_render(self, paper_scenario):
        for driver in (exp_graph1, exp_fig5, exp_headline):
            text = driver.run("published", scenario=paper_scenario).render()
            assert "paper vs measured" in text

    def test_scenario_campaign_cached(self):
        scenario = PaperScenario(points_per_decade=20)
        first = scenario.dataset()
        second = scenario.dataset()
        assert first is second


class TestExtensionDrivers:
    def test_diagnosis_published(self, paper_scenario):
        from repro.experiments import exp_diagnosis

        v = exp_diagnosis.run("published", scenario=paper_scenario).values
        assert v["detection_optimal.n_configs"] == 2.0
        assert v["quantized.resolution"] == 1.0
        assert (
            v["diagnosis_optimal.distinguishability"]
            == pytest.approx(v["all_configurations.distinguishability"])
        )

    def test_diagnosis_simulated(self, paper_scenario):
        from repro.experiments import exp_diagnosis

        v = exp_diagnosis.run("simulated", scenario=paper_scenario).values
        assert (
            v["diagnosis_optimal.n_configs"]
            >= v["detection_optimal.n_configs"]
        )

    def test_epsilon_curve_monotone(self):
        from repro.experiments import exp_epsilon

        v = exp_epsilon.run(n_samples=10).values
        assert (
            v["avg_escape@eps=0.05"]
            <= v["avg_escape@eps=0.1"]
            <= v["avg_escape@eps=0.25"]
        )

    def test_corner_ablation_compares_epsilon_with_the_band_floor(self):
        """The paper's eps=10 % is applied under the band criterion, so
        the ablation holds it to the band floor; the point-wise floor is
        held to the point-wise Monte Carlo percentile."""
        from repro.analysis import corner_analysis, decade_grid
        from repro.circuits.biquad import BiquadDesign, tow_thomas_biquad
        from repro.experiments import exp_ablations

        v = exp_ablations.corner_vs_montecarlo().values
        design = BiquadDesign()
        grid = decade_grid(design.f0_hz, 2, 2, points_per_decade=12)
        corners = corner_analysis(tow_thomas_biquad(design), grid, 0.02)
        assert v["band_floor@tol=0.02"] == corners.band_epsilon_floor()
        assert v["corner_floor@tol=0.02"] == corners.epsilon_floor()
        assert v["paper_epsilon_above_2pct_band_floor.measured"] == 1.0
        assert v["band_floor@tol=0.02"] < 0.10 < v["corner_floor@tol=0.02"]
        assert v["corner_floor@2pct"] >= v["mc_p95@2pct"]

    def test_run_all_collects_everything(self, paper_scenario):
        from repro.experiments.runner import run_paper_experiments

        reports = run_paper_experiments(scenario=paper_scenario)
        ids = {r.experiment_id for r in reports}
        assert {
            "E-T1", "E-G1", "E-F5", "E-T2", "E-G2", "E-XI",
            "E-G3", "E-T3", "E-T4", "E-G4", "E-HL", "E-DG",
        } <= ids


class TestAnalyzeCircuitEngines:
    def test_fast_and_standard_agree(self):
        """The production (Sherman–Morrison) flow sees the matrix the
        standard per-fault sweep of the scalar reference gives."""
        import numpy as np

        from repro.circuits import build
        from repro.experiments.exp_scaling import analyze_circuit
        from repro.faults import deviation_faults
        from repro.verify import reference_dataset

        bench = build("sallen_key")
        outcome = analyze_circuit(bench, points_per_decade=10)
        dataset = outcome["dataset"]
        standard = reference_dataset(
            bench.dft(),
            deviation_faults(bench.circuit, 0.20),
            dataset.setup,
            dataset.configs,
        )
        assert np.array_equal(
            outcome["matrix"].data, standard.detectability_matrix().data
        )
        assert np.array_equal(
            outcome["table"].data, standard.omega_table().data
        )

    def test_unknown_engine_rejected(self):
        """The engine knob is gone: any ``engine=`` is unknown."""
        from repro.circuits import build
        from repro.experiments.exp_scaling import analyze_circuit

        with pytest.raises(TypeError, match="engine"):
            analyze_circuit(build("sallen_key"), engine="fast")

    def test_petrick_fallback_on_cascade(self, monkeypatch):
        from repro.circuits import build
        from repro.errors import OptimizationError
        from repro.experiments import exp_scaling
        from repro.experiments.exp_scaling import analyze_circuit

        def over_budget(matrix, **kwargs):
            raise OptimizationError(
                "Petrick expansion exceeded 1000 terms; "
                "use branch_and_bound_cover for this instance"
            )

        monkeypatch.setattr(exp_scaling, "solve_covering", over_budget)
        outcome = analyze_circuit(build("cascade"), points_per_decade=8)
        assert outcome["petrick_fallback"]
        matrix = outcome["matrix"]
        assert matrix.covers_all(sorted(outcome["optimized"].selected))
