"""Tests for the detection-escape Monte Carlo analysis."""

import pytest

from repro.analysis import decade_grid
from repro.circuits import benchmark_biquad
from repro.errors import AnalysisError
from repro.faults import (
    deviation_faults,
    escape_analysis,
    escape_tradeoff_curve,
)


@pytest.fixture(scope="module")
def setup():
    bench = benchmark_biquad()
    grid = decade_grid(bench.f0_hz, 2, 2, points_per_decade=12)
    faults = deviation_faults(
        bench.circuit, 0.20, components=["R1", "R4"]
    )
    return bench.circuit, faults, grid


class TestEscapeAnalysis:
    def test_zero_tolerance_is_deterministic(self, setup):
        circuit, faults, grid = setup
        analysis = escape_analysis(
            circuit,
            faults,
            grid,
            epsilon=0.10,
            tolerance=0.0,
            n_samples=3,
        )
        # Without process noise, fR1/fR4 are always detected and the
        # good circuit always passes.
        assert analysis.yield_loss == 0.0
        assert all(
            v == 0.0 for v in analysis.escape_per_fault.values()
        )

    def test_huge_epsilon_escapes_everything(self, setup):
        circuit, faults, grid = setup
        analysis = escape_analysis(
            circuit,
            faults,
            grid,
            epsilon=5.0,
            tolerance=0.0,
            n_samples=3,
        )
        assert analysis.yield_loss == 0.0
        assert all(
            v == 1.0 for v in analysis.escape_per_fault.values()
        )

    def test_noise_creates_yield_loss_at_tight_epsilon(self, setup):
        circuit, faults, grid = setup
        analysis = escape_analysis(
            circuit,
            faults,
            grid,
            epsilon=0.02,
            tolerance=0.05,
            n_samples=20,
        )
        assert analysis.yield_loss > 0.5

    def test_deterministic_per_seed(self, setup):
        circuit, faults, grid = setup
        a = escape_analysis(
            circuit, faults, grid, n_samples=8, tolerance=0.05, seed=3
        )
        b = escape_analysis(
            circuit, faults, grid, n_samples=8, tolerance=0.05, seed=3
        )
        assert a.escape_per_fault == b.escape_per_fault
        assert a.yield_loss == b.yield_loss

    def test_schedule_restriction_cannot_reduce_escapes(self, setup):
        """Measuring only at selected frequencies can only miss more."""
        circuit, faults, grid = setup
        full = escape_analysis(
            circuit, faults, grid, n_samples=10, tolerance=0.02, seed=7
        )
        sparse = escape_analysis(
            circuit,
            faults,
            grid,
            n_samples=10,
            tolerance=0.02,
            seed=7,
            frequencies_hz=[grid.frequencies_hz[0]],
        )
        for fault in full.escape_per_fault:
            assert (
                sparse.escape_per_fault[fault]
                >= full.escape_per_fault[fault]
            )

    def test_render(self, setup):
        circuit, faults, grid = setup
        analysis = escape_analysis(
            circuit, faults, grid, n_samples=4, tolerance=0.02
        )
        text = analysis.render()
        assert "yield loss" in text
        assert "escape" in text

    def test_validation(self, setup):
        circuit, faults, grid = setup
        with pytest.raises(AnalysisError):
            escape_analysis(circuit, faults, grid, epsilon=0.0)
        with pytest.raises(AnalysisError):
            escape_analysis(circuit, faults, grid, n_samples=0)
        with pytest.raises(AnalysisError):
            escape_analysis(
                circuit, faults, grid, frequencies_hz=[]
            )

    def test_worst_fault(self, setup):
        circuit, faults, grid = setup
        analysis = escape_analysis(
            circuit, faults, grid, n_samples=5, tolerance=0.02
        )
        assert analysis.worst_fault in analysis.escape_per_fault

    def test_stacked_kernel_counts_solves(self, setup):
        from repro.analysis.kernel import KernelStats

        circuit, faults, grid = setup
        stats = KernelStats()
        escape_analysis(
            circuit,
            faults,
            grid,
            tolerance=0.05,
            n_samples=4,
            seed=7,
            stats=stats,
        )
        # (1 + n_faults) * n_samples variant sweeps; the nominal sweep
        # is not counted
        sweeps = (1 + len(faults)) * 4
        assert stats.solves == sweeps * grid.n_points
        assert stats.factorizations == stats.solves
        assert stats.stacked_calls == sweeps

    def test_unknown_kernel_rejected(self, setup):
        """The kernel option is gone: any ``kernel=`` is unknown."""
        circuit, faults, grid = setup
        with pytest.raises(TypeError, match="kernel"):
            escape_analysis(circuit, faults, grid, kernel="stacked")


class TestTradeoffCurve:
    def test_yield_loss_antitone_in_epsilon(self, setup):
        circuit, faults, grid = setup
        curve = escape_tradeoff_curve(
            circuit,
            faults,
            grid,
            epsilons=[0.03, 0.10, 0.30],
            tolerance=0.05,
            n_samples=12,
        )
        losses = [point.yield_loss for point in curve]
        assert losses == sorted(losses, reverse=True)

    def test_escape_monotone_in_epsilon(self, setup):
        circuit, faults, grid = setup
        curve = escape_tradeoff_curve(
            circuit,
            faults,
            grid,
            epsilons=[0.05, 0.50],
            tolerance=0.02,
            n_samples=10,
        )
        assert curve[0].average_escape <= curve[1].average_escape
