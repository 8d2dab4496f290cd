"""Stacked-kernel equivalence tests.

The stacked kernel's contract is exact reproduction: the production
fault simulation must return the same detectability matrix, ω-table
and nominal sweeps as the scalar oracle
:func:`repro.verify.reference_dataset`, which re-stamps every faulty
circuit and solves each sweep with one ``numpy.linalg.solve`` — bit for
bit, not merely within tolerance.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis import decade_grid
from repro.campaign import CampaignTelemetry
from repro.circuit import Circuit
from repro.circuits import benchmark_biquad, build
from repro.errors import SingularCircuitError
from repro.faults import (
    SimulationSetup,
    deviation_faults,
    simulate_faults,
)
from repro.faults.simulator import simulate_configuration
from repro.verify import reference_dataset


@pytest.fixture(scope="module")
def bench():
    return benchmark_biquad()


@pytest.fixture(scope="module")
def mcc(bench):
    return bench.dft()


@pytest.fixture(scope="module")
def faults(bench):
    return deviation_faults(bench.circuit, 0.20)


@pytest.fixture(scope="module")
def setup(bench):
    grid = decade_grid(bench.f0_hz, 2, 2, points_per_decade=20)
    return SimulationSetup(grid=grid)


def assert_identical(reference, candidate):
    assert np.array_equal(
        reference.detectability_matrix().data,
        candidate.detectability_matrix().data,
    )
    assert np.array_equal(
        reference.omega_table().data, candidate.omega_table().data
    )
    for index in reference.nominal:
        assert np.array_equal(
            reference.nominal[index].values,
            candidate.nominal[index].values,
        )


def oracle(mcc, faults, setup, dataset):
    return reference_dataset(mcc, faults, setup, dataset.configs)


class TestStandardEngine:
    def test_bit_identical_to_loop(self, mcc, faults, setup):
        """Production ≡ the scalar per-sweep loop of the oracle."""
        production = simulate_faults(mcc, faults, setup)
        assert_identical(oracle(mcc, faults, setup, production), production)

    def test_solve_count_unchanged(self, mcc, faults, setup):
        production = simulate_faults(mcc, faults, setup)
        assert production.n_solves == len(production.configs) * (
            len(faults) + 1
        )

    def test_factorizations_accounted(self, mcc, faults, setup):
        production = simulate_faults(mcc, faults, setup)
        # one LU per (configuration, frequency) point: every biquad
        # fault is a rank-1 update of its configuration's sweep
        n_points = setup.grid.frequencies_hz.size
        assert production.n_factorizations == (
            len(production.configs) * n_points
        )

    def test_unknown_kernel_rejected(self, mcc, faults, setup):
        """The kernel option is gone: any ``kernel=`` is unknown."""
        with pytest.raises(TypeError, match="kernel"):
            simulate_faults(mcc, faults, setup, kernel="stacked")

    def test_restricted_keeps_factorizations(self, mcc, faults, setup):
        production = simulate_faults(mcc, faults, setup)
        keep = [production.configs[0]]
        assert production.n_factorizations > 0
        assert (
            production.restricted(keep).n_factorizations
            == production.n_factorizations
        )


class TestFastEngine:
    def test_bit_identical_to_loop(self, mcc, faults, setup):
        """Matrix, ω-table and nominal sweeps equal the scalar oracle's."""
        fast = simulate_faults(mcc, faults, setup)
        assert_identical(oracle(mcc, faults, setup, fast), fast)
        # every biquad fault is a rank-1 update: one sweep per config
        n_points = setup.grid.frequencies_hz.size
        assert fast.n_factorizations == len(fast.configs) * n_points
        assert fast.sm_fallbacks == 0

    def test_catalog_parity(self, setup):
        bench = build("leapfrog")
        mcc = bench.dft()
        faults = deviation_faults(bench.circuit, 0.20)
        grid = decade_grid(bench.f0_hz, 2, 2, points_per_decade=10)
        setup = SimulationSetup(grid=grid)
        fast = simulate_faults(mcc, faults, setup)
        assert_identical(oracle(mcc, faults, setup, fast), fast)

    def test_own_nominal_for_circuits_sharing_a_netlist(self, setup):
        """Two circuits whose values differ beyond the netlist's 6
        printed digits each get their own nominal sweep in one process.
        """
        bench = build("sallen_key")
        first = bench.circuit.passives()[0].name
        nudged = dataclasses.replace(
            bench, circuit=bench.circuit.with_scaled(first, 1.0 + 1e-7)
        )
        assert nudged.circuit.netlist() == bench.circuit.netlist()
        faults = deviation_faults(bench.circuit, 0.20)
        nominals = []
        for variant in (bench, nudged):
            mcc = variant.dft()
            fast = simulate_faults(mcc, faults, setup)
            reference = oracle(mcc, faults, setup, fast)
            for index in reference.nominal:
                assert np.array_equal(
                    fast.nominal[index].values,
                    reference.nominal[index].values,
                )
            nominals.append(fast.nominal[0].values)
        assert not np.array_equal(*nominals)


class TestCampaignIntegration:
    def test_run_campaign_stacked_identical(self, mcc, faults, setup):
        """The campaign engine's dataset (what ``simulate_faults``
        runs) is the oracle's."""
        production = simulate_faults(mcc, faults, setup)
        assert_identical(oracle(mcc, faults, setup, production), production)

    def test_telemetry_counts_factorizations(self, mcc, faults, setup):
        telemetry = CampaignTelemetry()
        production = simulate_faults(mcc, faults, setup, telemetry=telemetry)
        assert (
            telemetry.snapshot()["factorizations"]
            == production.n_factorizations
        )
        assert telemetry.snapshot()["factorizations"] > 0


class TestSingularSemantics:
    def singular_circuit(self):
        # R1's far end floats, so the conductance matrix has a
        # zero-determinant 2x2 block at every frequency.
        circuit = Circuit("sick", output="a")
        circuit.current_source("I1", "0", "a")
        circuit.resistor("R1", "a", "b", 1e3)
        return circuit

    def test_same_error_both_kernels(self, setup):
        """The singular nominal sweep raises ``sweep_voltage``'s error,
        naming the whole grid (one frequency chunk)."""
        circuit = self.singular_circuit()
        faults = deviation_faults(circuit, 0.20)
        labels = [fault.short_name for fault in faults]
        with pytest.raises(SingularCircuitError) as excinfo:
            simulate_configuration(circuit, "a", faults, labels, setup)
        f = setup.grid.frequencies_hz
        assert str(excinfo.value) == (
            f"sick: MNA matrix singular within [{f[0]:g}, {f[-1]:g}] Hz"
        )

    def test_healthy_configuration_unaffected(self, setup, bench):
        """A singular sweep fails its own configuration only: a healthy
        campaign in the same process solves every configuration."""
        circuit = self.singular_circuit()
        faults = deviation_faults(circuit, 0.20)
        labels = [fault.short_name for fault in faults]
        with pytest.raises(SingularCircuitError):
            simulate_configuration(circuit, "a", faults, labels, setup)
        dataset = simulate_faults(
            bench.dft(), deviation_faults(bench.circuit, 0.20), setup
        )
        assert set(dataset.nominal) == set(dataset.config_indices)
