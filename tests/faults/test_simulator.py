"""Tests for the fault × configuration simulation engine."""

import sys

import numpy as np
import pytest

import repro.core.detectability as detectability_module
from repro.analysis import decade_grid
from repro.circuits import benchmark_biquad
from repro.dft import Configuration
from repro.errors import AnalysisError, CampaignError
from repro.faults import (
    DeviationFault,
    SimulationSetup,
    bidirectional_deviation_faults,
    deviation_faults,
    simulate_faults,
)
from tests.conftest import bare_row

#: what a universe with several faults per component gets under the
#: ``"short"`` label style
COLLIDE = (
    "fault labels collide; use fault_name_style='full' for universes "
    "with several faults per component"
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
        assert mini_dataset.masks.shape == (
            7, 8, mini_dataset.setup.grid.n_points
        )
        for array in (
            mini_dataset.detectable,
            mini_dataset.omega_detectability,
            mini_dataset.max_deviation,
            mini_dataset.f_max_deviation_hz,
        ):
            assert array.shape == (7, 8)

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
        with pytest.raises(CampaignError) as excinfo:
            simulate_faults(
                mcc, faults, SimulationSetup(grid=grid)
            )
        assert str(excinfo.value) == COLLIDE

    def test_empty_universe_refused(self, mini_dataset):
        """A campaign without faults is refused before any solve."""
        with pytest.raises(CampaignError) as excinfo:
            simulate_faults(
                benchmark_biquad().dft(), [], mini_dataset.setup
            )
        assert str(excinfo.value) == "no faults to simulate"

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
        assert subset.masks.shape[:2] == (3, 8)
        assert np.array_equal(subset.masks, mini_dataset.masks[:3])
        assert np.array_equal(
            subset.omega_detectability, mini_dataset.omega_detectability[:3]
        )

    def test_result_accessor(self, mini_dataset):
        result = mini_dataset.result(mini_dataset.configs[0], "fR1")
        assert result.detectable
        assert 0.0 < result.omega_detectability <= 1.0


class TestDefinitionsAsArrays:
    def test_views_are_read_only(self, mini_dataset):
        config = mini_dataset.configs[0]
        views = [
            mini_dataset.masks,
            mini_dataset.detectable,
            mini_dataset.omega_detectability,
            mini_dataset.max_deviation,
            mini_dataset.f_max_deviation_hz,
            mini_dataset.detectability_matrix().data,
            mini_dataset.omega_table().data,
            mini_dataset.detection_mask(config, "fR1"),
            mini_dataset.result(config, "fR1").mask,
            mini_dataset.restricted(mini_dataset.configs[:2]).masks,
        ]
        for view in views:
            with pytest.raises(ValueError, match="read-only"):
                view[...] = 0

    def test_slices_agree_with_result(self, mini_dataset):
        matrix = mini_dataset.detectability_matrix()
        table = mini_dataset.omega_table()
        for i, config in enumerate(mini_dataset.configs):
            for j, label in enumerate(mini_dataset.fault_labels):
                result = mini_dataset.result(config, label)
                assert matrix.data[i, j] == result.detectable
                assert table.data[i, j] == result.omega_detectability
                assert np.array_equal(
                    mini_dataset.detection_mask(config, label), result.mask
                )
                assert result.detectable == bool(result.mask.any())

    @pytest.fixture
    def grounded(self):
        """The biquad probed at ground: its nominal is identically zero."""
        bench = benchmark_biquad()
        grid = decade_grid(bench.f0_hz, 1, 1, points_per_decade=10)
        return bench.dft(), deviation_faults(bench.circuit, 0.20), grid

    def test_zero_nominal_band_raises(self, grounded):
        mcc, faults, grid = grounded
        setup = SimulationSetup(grid=grid, output="0")
        with pytest.raises(CampaignError) as excinfo:
            simulate_faults(mcc, faults, setup)
        cause = excinfo.value.__cause__
        assert type(cause) is AnalysisError
        assert str(cause) == (
            "nominal response is identically zero; band deviation undefined"
        )

    def test_zero_nominal_relative_detects_nothing(self, grounded):
        mcc, faults, grid = grounded
        setup = SimulationSetup(grid=grid, output="0", criterion="relative")
        dataset = simulate_faults(mcc, faults, setup)
        assert dataset.detectability_matrix().data.shape == (7, 8)
        assert not dataset.detectability_matrix().data.any()
        assert not dataset.omega_table().data.any()
        assert dataset.n_factorizations == 0

    def test_deviation_rows_once_per_configuration(
        self, mini_dataset, monkeypatch
    ):
        """Each configuration takes its deviations once, as one block:
        the zero-nominal check reads the nominal itself."""
        calls = []
        real = detectability_module.deviation_rows

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "deviation_rows", None) is real:
                monkeypatch.setattr(module, "deviation_rows", spy)
        bench = benchmark_biquad()
        dataset = simulate_faults(
            bench.dft(),
            deviation_faults(bench.circuit, 0.20),
            mini_dataset.setup,
        )
        assert len(calls) == len(dataset.configs)

    def test_production_makes_no_per_pair_evaluation(
        self, mini_dataset, monkeypatch
    ):
        """Definitions 1 and 2 run once per configuration block; the
        per-pair evaluation is left to the reference dataset."""
        calls = []
        real = detectability_module.evaluate_detectability

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "evaluate_detectability", None) is real:
                monkeypatch.setattr(module, "evaluate_detectability", spy)
        bench = benchmark_biquad()
        mcc = bench.dft()
        faults = deviation_faults(bench.circuit, 0.20)
        simulate_faults(mcc, faults, mini_dataset.setup)
        assert calls == []
        # the spy sees the reference's per-pair calls
        from repro.verify import reference_dataset

        configs = mini_dataset.configs[:1]
        reference_dataset(mcc, faults[:1], mini_dataset.setup, configs)
        assert calls == [1]


class TestSingleConfiguration:
    def test_matches_c0_of_full_campaign(self, mini_dataset):
        bench = benchmark_biquad()
        faults = deviation_faults(bench.circuit, 0.20)
        labels, row = bare_row(bench.circuit, faults, mini_dataset.setup)
        full_matrix = mini_dataset.detectability_matrix()
        for label, mask in zip(labels, row.masks):
            assert bool(mask.any()) == full_matrix.entry("C0", label)

    def test_paper_initial_pattern(self, mini_dataset):
        """Only fR1 and fR4 detectable in the functional filter (§2)."""
        bench = benchmark_biquad()
        faults = deviation_faults(bench.circuit, 0.20)
        labels, row = bare_row(bench.circuit, faults, mini_dataset.setup)
        detected = row.masks.any(axis=1)
        hits = {label for label, hit in zip(labels, detected) if hit}
        assert hits == {"fR1", "fR4"}
        assert detected.mean() == pytest.approx(0.25)

    def test_label_collision_detected(self, mini_dataset):
        """±20 % on R1 share the short label ``fR1``: the bare circuit
        refuses them as the campaign does, instead of keeping one of the
        two results under it."""
        bench = benchmark_biquad()
        faults = [DeviationFault("R1", 0.20), DeviationFault("R1", -0.20)]
        with pytest.raises(CampaignError) as excinfo:
            bare_row(bench.circuit, faults, mini_dataset.setup)
        assert str(excinfo.value) == COLLIDE
