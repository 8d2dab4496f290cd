"""Tests for the certified Sherman-Morrison fault simulator.

The contract is strict: every Definition 1 verdict, mask,
ω-detectability and nominal sweep equals the scalar reference
:func:`repro.verify.reference_dataset` (one re-stamped sweep per fault)
bit for bit; a Sherman-Morrison pair's peak deviation may differ from
it by rounding only, and a pair the certificate re-swept exactly matches
it bit for bit too.  All of it at one factorization per configuration
and grid point.
"""

import numpy as np
import pytest

from repro.analysis import ac_analysis, decade_grid
from repro.campaign import run_campaign
from repro.circuits import benchmark_biquad, build, catalog
from repro.core.detectability import deviation_profile
from repro.errors import CampaignError, SingularCircuitError
from repro.faults import (
    DeviationFault,
    MultipleFault,
    SimulationSetup,
    catastrophic_faults,
    deviation_faults,
    simulate_faults,
)
from repro.faults import simulator
from repro.verify import VerifyCase, build_ill_conditioned_case
from tests.conftest import assert_matches_reference


def resweeps(monkeypatch):
    """Record ``(points, circuit title, fault name)`` of every exact sweep."""
    calls = []
    exact_values = simulator._exact_values

    def spy(circuit, fault, probe, frequencies, stats):
        calls.append((frequencies.size, circuit.title, fault.name))
        return exact_values(circuit, fault, probe, frequencies, stats)

    monkeypatch.setattr(simulator, "_exact_values", spy)
    return calls


def run(bench, faults, name_style="short", ppd=25, epsilon=0.10):
    setup = SimulationSetup(
        grid=decade_grid(bench.f0_hz, 2, 2, points_per_decade=ppd),
        epsilon=epsilon,
        fault_name_style=name_style,
    )
    case = VerifyCase(
        name=bench.circuit.title,
        bench=bench,
        circuit=bench.circuit,
        faults=tuple(faults),
        setup=setup,
    )
    return case, simulate_faults(case.mcc(), faults, setup)


def check(bench, faults, **kwargs):
    case, dataset = run(bench, faults, **kwargs)
    assert_matches_reference(case, dataset)
    return dataset


class TestExactness:
    def test_deviation_universe_biquad(self):
        bench = benchmark_biquad()
        dataset = check(bench, deviation_faults(bench.circuit, 0.20))
        assert dataset.sm_fallbacks == 0

    def test_negative_deviations(self):
        bench = benchmark_biquad()
        check(bench, deviation_faults(bench.circuit, -0.20))

    def test_catastrophic_universe(self, monkeypatch):
        """Opens and shorts are rank-1 too; near-singular variants (an
        opened integrator capacitor) take the exact path and match the
        reference bit for bit, with no slack."""
        bench = benchmark_biquad()
        faults = catastrophic_faults(
            bench.circuit, components=["R1", "R4", "C1", "C2"]
        )
        calls = resweeps(monkeypatch)
        case, dataset = run(bench, faults, name_style="full", ppd=15)
        assert any(size == case.setup.grid.n_points for size, _, _ in calls)
        assert_matches_reference(case, dataset)

    @pytest.mark.parametrize(
        "name", ["sallen_key", "state_variable", "akerberg_mossberg"]
    )
    def test_library_circuits(self, name):
        bench = build(name)
        check(bench, deviation_faults(bench.circuit, 0.20), ppd=12)

    def test_finite_gbw_opamps(self):
        """The rank-1 identity holds with single-pole opamps too."""
        from repro.circuits import BiquadDesign, tow_thomas_biquad
        from repro.circuit import OpAmpModel
        from repro.circuits.catalog import BenchmarkCircuit

        design = BiquadDesign()
        model = OpAmpModel(kind="single_pole", a0=2e5, gbw_hz=1e6)
        bench = BenchmarkCircuit(
            circuit=tow_thomas_biquad(design, model=model),
            chain=("OP1", "OP2", "OP3"),
            input_node="in",
            f0_hz=design.f0_hz,
        )
        check(bench, deviation_faults(bench.circuit, 0.20), ppd=12)

    def test_nominal_owns_its_data(self):
        """Each nominal response is a copy, not a view of its
        configuration's (P, n, 1+n) solution block, which it would keep
        alive for the life of the dataset."""
        bench = build("cascade")
        dataset = simulate_faults(
            bench.dft(),
            deviation_faults(bench.circuit, 0.20),
            SimulationSetup(
                grid=decade_grid(bench.f0_hz, 2, 2, points_per_decade=10)
            ),
        )
        for response in dataset.nominal.values():
            assert response.values.base is None
            assert response.values.flags.owndata


class TestFallback:
    def test_multiple_fault_falls_back(self):
        bench = benchmark_biquad()
        faults = [
            DeviationFault("R1", 0.20),
            MultipleFault(
                (DeviationFault("R5", 0.20), DeviationFault("R6", 0.20))
            ),
        ]
        check(bench, faults, name_style="full", ppd=12)

    def test_inductor_fault_falls_back(self):
        """L faults are branch-based, not rank-1 in this formulation."""
        from repro.circuit import IDEAL_OPAMP, Circuit
        from repro.circuits.catalog import BenchmarkCircuit

        circuit = Circuit("rlc", output="out")
        circuit.voltage_source("Vin", "in")
        circuit.resistor("R1", "in", "x", 1e3)
        circuit.inductor("L1", "x", "out", 10e-3)
        circuit.capacitor("C1", "out", "0", 10e-9)
        circuit.resistor("R2", "x", "fb", 1e3)
        circuit.resistor("R3", "fb", "out2", 1e3)
        circuit.opamp("OP1", "0", "fb", "out2", IDEAL_OPAMP)
        bench = BenchmarkCircuit(
            circuit=circuit,
            chain=("OP1",),
            input_node="in",
            f0_hz=1.6e4,
        )
        check(bench, deviation_faults(circuit, 0.20), ppd=10)

    def test_borderline_point_resolved_exactly(self, monkeypatch):
        """A grid point whose deviation sits within its error bound of ε
        is re-solved exactly there, without re-sweeping the pair."""
        bench = benchmark_biquad()
        faults = [DeviationFault("R1", 0.20)]
        case, first = run(bench, faults, ppd=10)
        config = first.configs[0]
        nominal = first.nominal[config.index]
        k = int(np.argmax(first.results[(config.index, "fR1")].mask))
        # ε exactly on the exact deviation of one grid point
        faulty = ac_analysis(
            faults[0].apply(case.mcc().emulate(config)), case.setup.grid
        )
        epsilon = float(deviation_profile(nominal, faulty)[k])
        calls = resweeps(monkeypatch)
        case, dataset = run(bench, faults, ppd=10, epsilon=epsilon)
        assert dataset.sm_fallbacks >= 1
        assert all(size < case.setup.grid.n_points for size, _, _ in calls)
        assert_matches_reference(case, dataset)


    def test_cancellation_guard_resweeps_near_singular_variant(
        self, monkeypatch
    ):
        """R1 a hair from −50 % leaves C6 of the state-variable filter
        nearly singular (cancellation factor about 1e9): the guard alone,
        with the peak guard switched off, re-sweeps the pair."""
        monkeypatch.setattr(simulator, "PEAK_LIMIT", float("inf"))
        bench = build("state_variable")
        faults = [DeviationFault("R1", -0.5 * (1 + 1e-9))]
        calls = resweeps(monkeypatch)
        _, dataset = run(bench, faults, ppd=10)
        assert dataset.sm_fallbacks == dataset.setup.grid.n_points
        assert [title for _, title, _ in calls] == [
            "KHN state-variable filter [C6]"
        ]

    def test_peak_guard_resweeps_inaccurate_pair(self, monkeypatch):
        """An ill-conditioned case (seed 1138 of
        ``build_ill_conditioned_case``) whose Sherman–Morrison peak would
        sit 3.5e-5 from the reference's: its error bound exceeds
        ``PEAK_LIMIT``, so the pair is re-swept and matches exactly."""
        case = build_ill_conditioned_case(1138)
        calls = resweeps(monkeypatch)
        dataset = simulate_faults(case.mcc(), list(case.faults), case.setup)
        assert any(size == case.setup.grid.n_points for size, _, _ in calls)
        assert_matches_reference(case, dataset)

    def test_certificate_chunks_agree(self, monkeypatch):
        """The certificate reads ``A⁻¹`` one frequency chunk at a time:
        chunks of 7 points make the same fallback decisions as the one
        chunk a catalog-sized sweep takes."""
        case = build_ill_conditioned_case(1138)
        mcc, faults = case.mcc(), list(case.faults)
        whole = simulate_faults(mcc, faults, case.setup)
        monkeypatch.setattr(simulator, "frequency_chunk", lambda n: 7)
        chunked = simulate_faults(mcc, faults, case.setup)
        assert chunked.sm_fallbacks == whole.sm_fallbacks > 0
        for key, result in whole.results.items():
            assert np.array_equal(chunked.results[key].mask, result.mask)
            assert chunked.results[key].max_deviation == result.max_deviation


class TestSolveCount:
    def test_fast_engine_solve_budget(self):
        bench = benchmark_biquad()
        _, dataset = run(bench, deviation_faults(bench.circuit, 0.20), ppd=10)
        setup = dataset.setup
        # logical sweeps: configs x (faults + 1); LU work: one
        # factorization per configuration and grid point
        assert dataset.n_solves == 7 * 9
        assert dataset.n_factorizations == 7 * setup.grid.n_points
        assert dataset.sm_fallbacks == 0

    def test_fallback_counts_extra_solves(self):
        bench = benchmark_biquad()
        faults = [
            DeviationFault("R1", 0.20),
            MultipleFault(
                (DeviationFault("R5", 0.20), DeviationFault("R6", 0.20))
            ),
        ]
        _, dataset = run(bench, faults, name_style="full", ppd=10)
        setup = dataset.setup
        assert dataset.n_solves == 7 * 3
        # one multi-RHS sweep + one exact sweep of the multiple fault
        assert dataset.n_factorizations == 7 * 2 * setup.grid.n_points
        assert dataset.sm_fallbacks == 0

    @pytest.mark.parametrize("name", catalog())
    def test_catalog_counters(self, name):
        """The benchmark's operating point: every catalog circuit at
        +20 %, ε 0.10, 50 points per decade over ±2 decades costs one
        factorization per configuration and grid point, and the
        certificate re-solves nothing."""
        bench = build(name)
        faults = deviation_faults(bench.circuit, 0.20)
        _, dataset = run(bench, faults, ppd=50)
        setup = dataset.setup
        n_configs = len(dataset.configs)
        assert dataset.n_solves == n_configs * (1 + len(faults))
        assert dataset.n_factorizations == n_configs * setup.grid.n_points
        assert dataset.sm_fallbacks == 0


class TestSingularVariant:
    """``state_variable`` at −50 %: R1 or R3 makes the C6 pencil singular.

    The rank-1 update cancels there (cancellation factor about 1e19), so
    the pair is re-swept exactly and raises the per-fault sweep's error
    instead of reporting a singular circuit as detectable everywhere.
    """

    MESSAGE = (
        "KHN state-variable filter [C6]: MNA matrix singular within "
        "[15.9155, 159155] Hz"
    )

    def case(self):
        bench = build("state_variable")
        setup = SimulationSetup(
            grid=decade_grid(bench.f0_hz, 2, 2, points_per_decade=50),
            epsilon=0.10,
        )
        return bench.dft(), deviation_faults(bench.circuit, -0.5), setup

    def test_simulate_faults_raises(self):
        mcc, faults, setup = self.case()
        with pytest.raises(SingularCircuitError) as info:
            simulate_faults(mcc, faults, setup)
        assert str(info.value) == self.MESSAGE

    def test_campaign_raises(self):
        mcc, faults, setup = self.case()
        with pytest.raises(CampaignError) as info:
            run_campaign(mcc, faults, setup, chunk_size=1)
        assert isinstance(info.value.__cause__, SingularCircuitError)
        assert str(info.value.__cause__) == self.MESSAGE
