"""Tests for frequency grids and the log-measure."""

import pickle

import numpy as np
import pytest

from repro.analysis.sweep import FrequencyGrid, decade_grid
from repro.errors import AnalysisError


class TestFrequencyGrid:
    def test_limits(self):
        grid = FrequencyGrid(10.0, 1000.0, points_per_decade=10)
        assert grid.frequencies_hz[0] == pytest.approx(10.0)
        assert grid.frequencies_hz[-1] == pytest.approx(1000.0)

    def test_decades(self):
        grid = FrequencyGrid(10.0, 1000.0)
        assert grid.decades == pytest.approx(2.0)

    def test_point_count(self):
        grid = FrequencyGrid(10.0, 1000.0, points_per_decade=10)
        assert grid.n_points == 21

    def test_log_spacing(self):
        grid = FrequencyGrid(1.0, 100.0, points_per_decade=5)
        ratios = grid.frequencies_hz[1:] / grid.frequencies_hz[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_iteration_and_len(self):
        grid = FrequencyGrid(1.0, 10.0, points_per_decade=4)
        assert len(list(grid)) == len(grid)

    def test_invalid_limits(self):
        with pytest.raises(AnalysisError):
            FrequencyGrid(0.0, 100.0)
        with pytest.raises(AnalysisError):
            FrequencyGrid(100.0, 10.0)

    def test_invalid_density(self):
        with pytest.raises(AnalysisError):
            FrequencyGrid(1.0, 10.0, points_per_decade=1)


class TestLogMeasure:
    def test_full_mask_equals_decades(self):
        grid = FrequencyGrid(1.0, 10_000.0, points_per_decade=25)
        mask = np.ones(grid.n_points, dtype=bool)
        assert grid.log_measure(mask) == pytest.approx(grid.decades)

    def test_empty_mask_is_zero(self):
        grid = FrequencyGrid(1.0, 100.0)
        mask = np.zeros(grid.n_points, dtype=bool)
        assert grid.log_measure(mask) == 0.0

    def test_fraction_of_full_mask_is_one(self):
        grid = FrequencyGrid(1.0, 100.0, points_per_decade=50)
        assert grid.fraction(np.ones(grid.n_points, bool)) == pytest.approx(
            1.0
        )

    def test_half_mask_is_about_half(self):
        grid = FrequencyGrid(1.0, 100.0, points_per_decade=100)
        mask = grid.frequencies_hz <= 10.0
        assert grid.fraction(mask) == pytest.approx(0.5, abs=0.01)

    def test_measure_additive(self):
        grid = FrequencyGrid(1.0, 1000.0, points_per_decade=30)
        mask_a = grid.frequencies_hz < 10.0
        mask_b = ~mask_a
        total = grid.log_measure(mask_a) + grid.log_measure(mask_b)
        assert total == pytest.approx(grid.decades)

    def test_wrong_mask_shape_raises(self):
        grid = FrequencyGrid(1.0, 100.0)
        with pytest.raises(AnalysisError):
            grid.log_measure(np.ones(3, dtype=bool))

    def test_fractions_reject_a_wrong_mask_shape(self):
        grid = FrequencyGrid(1.0, 100.0)
        with pytest.raises(AnalysisError):
            grid.fractions(np.ones((2, 3), dtype=bool))

    def test_stored_widths_match_the_midpoint_rule(self):
        """The widths computed once per grid are the cells the measure
        used to rebuild on every call, to the bit."""
        rng = np.random.default_rng(7)
        for _ in range(100):
            f_start = 10.0 ** rng.uniform(-2.0, 6.0)
            grid = FrequencyGrid(
                f_start,
                f_start * 10.0 ** rng.uniform(0.5, 6.0),
                int(rng.integers(2, 301)),
            )
            log_f = np.log10(grid.frequencies_hz)
            edges = np.empty(log_f.size + 1)
            edges[1:-1] = 0.5 * (log_f[1:] + log_f[:-1])
            edges[0] = log_f[0]
            edges[-1] = log_f[-1]
            widths = np.diff(edges)
            assert grid.widths.tobytes() == widths.tobytes()
            mask = rng.random(grid.n_points) < rng.random()
            assert grid.log_measure(mask) == float(np.sum(widths[mask]))

    def test_pickle_rebuilds_the_grid(self):
        grid = FrequencyGrid(3.0, 3e4, points_per_decade=17)
        copy = pickle.loads(pickle.dumps(grid))
        assert copy == grid
        for name in ("frequencies_hz", "widths"):
            rebuilt, original = getattr(copy, name), getattr(grid, name)
            assert rebuilt.tobytes() == original.tobytes()
            # a fresh grid's dtype, so results derived from either grid
            # pickle to the same bytes
            assert rebuilt.dtype is np.dtype(float)


class TestDecadeGrid:
    def test_centered(self):
        grid = decade_grid(1000.0, 2, 2)
        assert grid.f_start == pytest.approx(10.0)
        assert grid.f_stop == pytest.approx(100_000.0)

    def test_asymmetric(self):
        grid = decade_grid(1000.0, decades_below=1, decades_above=3)
        assert grid.f_start == pytest.approx(100.0)
        assert grid.f_stop == pytest.approx(1_000_000.0)

    def test_invalid_center(self):
        with pytest.raises(AnalysisError):
            decade_grid(0.0)

    def test_default_is_four_decades(self):
        grid = decade_grid(100.0)
        assert grid.decades == pytest.approx(4.0)
