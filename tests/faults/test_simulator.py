"""Tests for the fault × configuration simulation engine."""

import numpy as np
import pytest

from repro.analysis import decade_grid
from repro.circuits import benchmark_biquad
from repro.dft import Configuration
from repro.errors import AnalysisError
from repro.faults import (
    DeviationFault,
    SimulationSetup,
    bidirectional_deviation_faults,
    deviation_faults,
    simulate_faults,
    simulate_single_configuration,
)


class TestSimulationSetup:
    def test_defaults(self):
        setup = SimulationSetup(grid=decade_grid(1e3))
        assert setup.epsilon == 0.10
        assert setup.criterion == "band"
        assert setup.fault_name_style == "short"

    def test_epsilon_validated(self):
        with pytest.raises(AnalysisError):
            SimulationSetup(grid=decade_grid(1e3), epsilon=0.0)

    def test_criterion_validated(self):
        with pytest.raises(AnalysisError):
            SimulationSetup(grid=decade_grid(1e3), criterion="weird")

    def test_name_style_validated(self):
        with pytest.raises(AnalysisError):
            SimulationSetup(grid=decade_grid(1e3), fault_name_style="x")


class TestSimulateFaults:
    def test_campaign_shape(self, mini_dataset):
        assert len(mini_dataset.configs) == 7
        assert len(mini_dataset.fault_labels) == 8
        assert len(mini_dataset.results) == 56

    def test_solve_count(self, mini_dataset):
        # 7 configurations x (1 nominal + 8 faulty) sweeps
        assert mini_dataset.n_solves == 7 * 9

    def test_short_labels(self, mini_dataset):
        assert "fR1" in mini_dataset.fault_labels

    def test_matrix_and_table_shapes(self, mini_dataset):
        matrix = mini_dataset.detectability_matrix()
        table = mini_dataset.omega_table()
        assert matrix.data.shape == (7, 8)
        assert table.data.shape == (7, 8)

    def test_matrix_consistent_with_table(self, mini_dataset):
        matrix = mini_dataset.detectability_matrix()
        table = mini_dataset.omega_table()
        assert np.array_equal(matrix.data, table.data > 0)

    def test_nominal_cached_per_config(self, mini_dataset):
        assert set(mini_dataset.nominal) == set(range(7))

    def test_detection_mask_shape(self, mini_dataset):
        config = mini_dataset.configs[0]
        mask = mini_dataset.detection_mask(config, "fR1")
        assert mask.shape == mini_dataset.setup.grid.frequencies_hz.shape

    def test_explicit_config_subset(self):
        bench = benchmark_biquad()
        mcc = bench.dft()
        faults = deviation_faults(bench.circuit, 0.20)
        grid = decade_grid(bench.f0_hz, 1, 1, points_per_decade=10)
        setup = SimulationSetup(grid=grid)
        configs = [Configuration(0, 3), Configuration(2, 3)]
        dataset = simulate_faults(mcc, faults, setup, configs=configs)
        assert dataset.config_labels == ("C0", "C2")

    def test_label_collision_detected(self):
        bench = benchmark_biquad()
        mcc = bench.dft()
        faults = bidirectional_deviation_faults(bench.circuit, 0.20)
        grid = decade_grid(bench.f0_hz, 1, 1, points_per_decade=10)
        with pytest.raises(AnalysisError, match="collide"):
            simulate_faults(
                mcc, faults, SimulationSetup(grid=grid)
            )

    def test_full_name_style_for_bidirectional(self):
        bench = benchmark_biquad()
        mcc = bench.dft()
        faults = bidirectional_deviation_faults(
            bench.circuit, 0.20, components=["R1"]
        )
        grid = decade_grid(bench.f0_hz, 1, 1, points_per_decade=8)
        setup = SimulationSetup(grid=grid, fault_name_style="full")
        dataset = simulate_faults(mcc, faults, setup)
        assert set(dataset.fault_labels) == {"fR1+20%", "fR1-20%"}

    def test_restricted(self, mini_dataset):
        subset = mini_dataset.restricted(mini_dataset.configs[:3])
        assert len(subset.configs) == 3
        assert len(subset.results) == 3 * 8

    def test_result_accessor(self, mini_dataset):
        result = mini_dataset.result(mini_dataset.configs[0], "fR1")
        assert result.detectable
        assert 0.0 < result.omega_detectability <= 1.0


class TestSingleConfiguration:
    def test_matches_c0_of_full_campaign(self, mini_dataset):
        bench = benchmark_biquad()
        faults = deviation_faults(bench.circuit, 0.20)
        dataset = simulate_single_configuration(
            bench.circuit, faults, mini_dataset.setup
        )
        full_matrix = mini_dataset.detectability_matrix()
        single_matrix = dataset.detectability_matrix()
        for fault in dataset.fault_labels:
            assert single_matrix.entry("C0", fault) == full_matrix.entry(
                "C0", fault
            )

    def test_paper_initial_pattern(self, mini_dataset):
        """Only fR1 and fR4 detectable in the functional filter (§2)."""
        bench = benchmark_biquad()
        faults = deviation_faults(bench.circuit, 0.20)
        dataset = simulate_single_configuration(
            bench.circuit, faults, mini_dataset.setup
        )
        matrix = dataset.detectability_matrix()
        assert set(matrix.faults_detected_by("C0")) == {"fR1", "fR4"}
        assert matrix.fault_coverage(["C0"]) == pytest.approx(0.25)

    def test_label_collision_detected(self, mini_dataset):
        """±20 % on R1 share the short label ``fR1``: the bare circuit
        refuses them as the campaign does, instead of keeping one of the
        two results under it."""
        bench = benchmark_biquad()
        faults = [DeviationFault("R1", 0.20), DeviationFault("R1", -0.20)]
        with pytest.raises(AnalysisError, match="collide"):
            simulate_single_configuration(
                bench.circuit, faults, mini_dataset.setup
            )
