"""Batched tolerance engine: bitwise oracle equality and failure parity.

The batched assembly (:mod:`repro.analysis.batched`) contracts to
reproduce the per-sample rebuild loop **exactly** — same PRNG stream,
same deviations bit for bit, same errors for singular samples.  These
tests pin that contract against the scalar oracle
:func:`repro.verify.reference_scaled_responses` on catalog circuits and
on a purpose-built circuit whose tolerance box contains an exactly
singular vertex.
"""

from itertools import product

import numpy as np
import pytest

from repro.analysis import (
    KernelStats,
    ac_analysis,
    corner_analysis,
    decade_grid,
    monte_carlo_tolerance,
    sample_factors,
    scaled_values,
)
from repro.analysis.batched import StampProgram
from repro.analysis.mna import MnaSystem
from repro.circuit import VCCS, Circuit
from repro.circuits import build
from repro.errors import AnalysisError, SingularCircuitError
from repro.verify import reference_scaled_responses


@pytest.fixture(scope="module")
def bench():
    return build("biquad")


@pytest.fixture(scope="module")
def grid(bench):
    return decade_grid(bench.f0_hz, 1, 1, points_per_decade=10)


def oracle_rows(circuit, grid, names, factors, measure):
    """``nominal.<measure>(response)`` for every oracle response, stacked."""
    nominal = ac_analysis(circuit, grid)
    return np.vstack(
        [
            getattr(nominal, measure)(response)
            for response in reference_scaled_responses(
                circuit, grid, names, factors
            )
        ]
    )


class TestKernelEquality:
    """Production batched assembly ≡ the per-sample rebuild oracle."""

    @pytest.mark.parametrize("distribution", ["uniform", "normal"])
    def test_monte_carlo_bitwise_equal(self, bench, grid, distribution):
        names = [e.name for e in bench.circuit.passives()]
        production = monte_carlo_tolerance(
            bench.circuit,
            grid,
            tolerance=0.05,
            n_samples=32,
            distribution=distribution,
            seed=11,
        )
        factors = sample_factors(
            np.random.default_rng(11), 32, len(names), 0.05, distribution
        )
        expected = oracle_rows(
            bench.circuit, grid, names, factors, "relative_deviation"
        )
        assert np.array_equal(production.deviations, expected)

    def test_corners_bitwise_equal(self, bench, grid):
        names = [e.name for e in bench.circuit.passives()][:6]
        production = corner_analysis(bench.circuit, grid, components=names)
        patterns = list(product((-1, +1), repeat=len(names)))
        factors = 1.0 + np.asarray(patterns, dtype=float) * 0.05
        relative = oracle_rows(
            bench.circuit, grid, names, factors, "relative_deviation"
        )
        band = oracle_rows(
            bench.circuit, grid, names, factors, "band_deviation"
        )
        assert np.array_equal(production.envelope, relative.max(axis=0))
        assert np.array_equal(production.band_envelope, band.max(axis=0))
        assert production.corner_deviation == {
            s: float(row.max()) for s, row in zip(patterns, relative)
        }
        assert production.band_corner_deviation == {
            s: float(row.max()) for s, row in zip(patterns, band)
        }

    def test_seed_reproducible_across_kernels(self, bench, grid):
        """A seed names one sample family, run after run."""
        runs = [
            monte_carlo_tolerance(bench.circuit, grid, n_samples=12, seed=42)
            for _ in range(3)
        ]
        for other in runs[1:]:
            assert np.array_equal(runs[0].deviations, other.deviations)

    def test_scaled_responses_match_per_sample_sweeps(self, bench, grid):
        circuit = bench.circuit
        names = [e.name for e in circuit.passives()][:4]
        rng = np.random.default_rng(3)
        factors = 1.0 + rng.uniform(-0.05, 0.05, size=(7, len(names)))
        batched = scaled_values(circuit, grid, names, factors)
        oracle = reference_scaled_responses(circuit, grid, names, factors)
        assert np.array_equal(
            batched, [reference.values for reference in oracle]
        )

    def test_repeated_component_scaled_by_each_column(self, bench, grid):
        """A name listed twice is scaled twice, as repeated
        ``with_scaled`` calls scale it."""
        names = ["R1", "R2", "R1"]
        factors = np.array([[1.03, 0.98, 0.96], [0.97, 1.01, 1.04]])
        values = scaled_values(bench.circuit, grid, names, factors)
        oracle = reference_scaled_responses(
            bench.circuit, grid, names, factors
        )
        for row, reference in zip(values, oracle):
            assert np.array_equal(row, reference.values)

    def test_kernel_stats_threaded(self, bench, grid):
        stats = KernelStats()
        monte_carlo_tolerance(
            bench.circuit, grid, n_samples=10, seed=1, stats=stats
        )
        # 1 nominal sweep + 10 sample sweeps, one solve per frequency
        assert stats.solves == 11 * len(grid)
        assert stats.factorizations == 11 * len(grid)
        assert stats.stacked_calls == 11


def singular_vertex_circuit() -> Circuit:
    """A circuit exactly singular when ``Rv`` is scaled by 0.5.

    KCL at node ``x`` sums the conductances ``g0 + gv - gm`` with
    ``g0 = 1``, ``gm = 3`` and nominal ``gv = 1``; scaling ``Rv`` by the
    binary-exact factor 0.5 gives ``gv = 2`` and a zero pivot at every
    frequency.
    """
    c = Circuit("singular-vertex", output="x")
    c.voltage_source("V1", "in")
    c.resistor("R0", "in", "x", 1.0)
    c.resistor("Rv", "x", "0", 1.0)
    c.add(VCCS("G1", np="0", nn="x", ncp="x", ncn="0", gm=3.0))
    return c


class TestSingularSampleParity:
    def test_both_kernels_raise_identical_error(self, grid):
        """The first singular row raises the oracle's exact error."""
        circuit = singular_vertex_circuit()
        factors = np.array([[1.0], [0.5], [1.25]])

        with pytest.raises(SingularCircuitError) as production_error:
            scaled_values(circuit, grid, ["Rv"], factors)

        with pytest.raises(SingularCircuitError) as oracle_error:
            reference_scaled_responses(circuit, grid, ["Rv"], factors)

        assert str(production_error.value) == str(oracle_error.value)

    def test_healthy_rows_unaffected_by_batch_mate(self, grid):
        """Rows before and after the singular one still solve; only the
        failing sample surfaces (first in row order)."""
        circuit = singular_vertex_circuit()
        healthy = np.array([[1.0], [1.25]])
        values = scaled_values(circuit, grid, ["Rv"], healthy)
        assert np.all(np.isfinite(values))
        reference = ac_analysis(circuit.with_scaled("Rv", 1.25), grid)
        assert np.array_equal(values[1], reference.values)


class TestValidation:
    def test_uniform_unit_tolerance_rejected(self, bench, grid):
        with pytest.raises(AnalysisError, match="tolerance must be < 1"):
            monte_carlo_tolerance(bench.circuit, grid, tolerance=1.0)

    def test_normal_unit_tolerance_allowed(self, bench, grid):
        analysis = monte_carlo_tolerance(
            bench.circuit,
            grid,
            tolerance=1.0,
            n_samples=4,
            distribution="normal",
            seed=0,
        )
        assert analysis.n_samples == 4

    def test_unknown_distribution_names_the_options(self, bench, grid):
        with pytest.raises(AnalysisError, match="unknown distribution"):
            monte_carlo_tolerance(
                bench.circuit, grid, distribution="cauchy"
            )

    def test_corner_unit_tolerance_rejected(self, bench, grid):
        with pytest.raises(AnalysisError, match="tolerance must be < 1"):
            corner_analysis(bench.circuit, grid, tolerance=1.0)

    def test_unknown_kernel_rejected(self, bench, grid):
        """The kernel option is gone: any ``kernel=`` is unknown."""
        with pytest.raises(TypeError, match="kernel"):
            monte_carlo_tolerance(bench.circuit, grid, kernel="stacked")

    def test_stamp_program_rejects_non_two_terminal(self, grid):
        circuit = singular_vertex_circuit()
        system = MnaSystem(circuit)
        with pytest.raises(AnalysisError, match="no scalar value"):
            StampProgram(system, ["G1"])


class TestDefinitionOneRegression:
    def test_epsilon_floor_comparable_with_suggested_epsilon(
        self, bench, grid
    ):
        """Corner ``epsilon_floor`` and Monte Carlo ``suggested_epsilon``
        use the same Definition 1 point-wise ``|ΔT/T|`` normalization,
        so on a shared circuit the worst-vertex bound must dominate the
        sampled percentile (vertices bound the box for any sample
        count), and the band-normalised floor must stay distinct.
        """
        circuit = bench.circuit
        corners = corner_analysis(circuit, grid, tolerance=0.05)
        mc = monte_carlo_tolerance(
            circuit, grid, tolerance=0.05, n_samples=100, seed=5
        )
        floor = corners.epsilon_floor()
        suggested = mc.suggested_epsilon(95.0)
        assert floor >= suggested
        # same units: the two are within a small factor of each other,
        # which would not hold if one were band-normalised (the band
        # floor differs by ~3x on this circuit)
        assert floor < 10.0 * suggested
        assert corners.band_epsilon_floor() != corners.epsilon_floor()
        assert "relative deviation" in corners.describe_worst()
