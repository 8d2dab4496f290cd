"""Tests for the certified Sherman-Morrison fault simulator.

The contract is strict: every Definition 1 verdict, mask,
ω-detectability and nominal sweep equals the scalar reference
:func:`repro.verify.reference_dataset` (one re-stamped sweep per fault)
bit for bit; a Sherman-Morrison pair's peak deviation may differ from
it by rounding only, and a pair the certificate re-swept exactly matches
it bit for bit too.  All of it at one factorization per configuration
and grid point.
"""

import dataclasses
from typing import Optional, Tuple

import numpy as np
import pytest

from repro.analysis import KernelStats, MnaSystem, ac_analysis, decade_grid
from repro.campaign import executor as executor_module
from repro.circuit import IDEAL_OPAMP, Circuit
from repro.circuits import benchmark_biquad, build, catalog
from repro.circuits.catalog import BenchmarkCircuit
from repro.dft import Configuration, SwitchParasitics
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


#: right-hand-side columns of a catalog circuit's campaign at +20 %, 50
#: points per decade over ±2 decades (P = 201): P·(1 + n) for the
#: functional configuration's ``[z, I]`` plus P·(1 + |S_c|) for every
#: other configuration c, whose pencil differs from C0's in the |S_c|
#: rows of its followers; 113,163 for the catalog, where one ``[z, I]``
#: sweep per configuration solved 489,837
CATALOG_RHS_COLUMNS = {
    "akerberg_mossberg": 201 * (12 + 6 + 9),
    "bandpass_mfb": 201 * (11 + 2 + 2),
    "biquad": 201 * (12 + 6 + 9),
    "cascade": 201 * (21 + 62 + 186),
    "leapfrog": 201 * (18 + 30 + 75),
    "multistage": 201 * (15 + 14 + 28),
    "sallen_key": 201 * (13 + 2 + 2),
    "state_variable": 201 * (13 + 6 + 9),
}


def kernel_stats(monkeypatch):
    """Every :class:`KernelStats` a campaign makes from now on: each
    unit's (the executor's) and each basis's (the simulator's)."""
    made = []

    class Recorded(KernelStats):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(simulator, "KernelStats", Recorded)
    monkeypatch.setattr(executor_module, "KernelStats", Recorded)
    return made


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
        k = int(np.argmax(first.detection_mask(config, "fR1")))
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
        assert np.array_equal(chunked.masks, whole.masks)
        assert np.array_equal(chunked.max_deviation, whole.max_deviation)


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
    def test_catalog_counters(self, name, monkeypatch):
        """The benchmark's operating point: every catalog circuit at
        +20 %, ε 0.10, 50 points per decade over ±2 decades costs one
        factorization per configuration and grid point, solves
        :data:`CATALOG_RHS_COLUMNS` right-hand-side columns, and the
        certificate re-solves nothing, at +30 % and +50 % too."""
        bench = build(name)
        faults = deviation_faults(bench.circuit, 0.20)
        made = kernel_stats(monkeypatch)
        _, dataset = run(bench, faults, ppd=50)
        setup = dataset.setup
        n_configs = len(dataset.configs)
        assert dataset.n_solves == n_configs * (1 + len(faults))
        assert dataset.n_factorizations == n_configs * setup.grid.n_points
        assert dataset.sm_fallbacks == 0
        assert sum(stats.rhs_columns for stats in made) == (
            CATALOG_RHS_COLUMNS[name]
        )
        for deviation in (0.30, 0.50):
            faults = deviation_faults(bench.circuit, deviation)
            assert run(bench, faults, ppd=50)[1].sm_fallbacks == 0


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
        with pytest.raises(CampaignError) as info:
            simulate_faults(mcc, faults, setup)
        assert type(info.value.__cause__) is SingularCircuitError
        assert str(info.value.__cause__) == self.MESSAGE

    def test_campaign_raises(self):
        """Every configuration runs; the error counts the one unit that
        failed and names it by its configuration."""
        mcc, faults, setup = self.case()
        with pytest.raises(CampaignError) as info:
            simulate_faults(mcc, faults, setup)
        assert str(info.value) == (
            "1 of 7 work unit(s) failed (first: C6 after 1 attempt(s): "
            f"SingularCircuitError({self.MESSAGE!r}))"
        )


@dataclasses.dataclass(frozen=True)
class DftCase(VerifyCase):
    """A case under a variant of its benchmark's DFT."""

    parasitics: Optional[SwitchParasitics] = None
    configurable: Optional[Tuple[int, ...]] = None

    def mcc(self):
        mcc = self.bench.dft(self.parasitics)
        if self.configurable is None:
            return mcc
        return mcc.restrict(self.configurable)


def setup_for(bench, ppd=10):
    return SimulationSetup(
        grid=decade_grid(bench.f0_hz, 2, 2, points_per_decade=ppd)
    )


class TestSharedBasis:
    """Every configuration reuses the functional circuit's ``[z, I]``
    sweep and solves only ``[z, E_S]``, S its rows that differ from
    C0's.  The cases below are the ones the catalog does not exercise;
    each is held to the scalar reference, every nominal sweep bit for
    bit."""

    @pytest.mark.parametrize("name", ["biquad", "leapfrog"])
    @pytest.mark.parametrize(
        "parasitics, configurable",
        [
            (SwitchParasitics(), None),
            (None, (1, 2)),
            (SwitchParasitics(), (1, 3)),
        ],
        ids=["parasitics", "partial", "partial-parasitics"],
    )
    def test_dft_variants(self, name, parasitics, configurable):
        bench = build(name)
        case = DftCase(
            name=name,
            bench=bench,
            circuit=bench.circuit,
            faults=tuple(deviation_faults(bench.circuit, 0.20)),
            setup=setup_for(bench),
            parasitics=parasitics,
            configurable=configurable,
        )
        dataset = simulate_faults(case.mcc(), list(case.faults), case.setup)
        assert_matches_reference(case, dataset)

    def test_parasitic_follower_changes_more_than_its_opamp_row(
        self, monkeypatch
    ):
        """Under switch parasitics a follower also drops its mux's
        leakage switch, so its configuration sweeps more columns than
        one per follower."""
        bench = build("biquad")
        faults = deviation_faults(bench.circuit, 0.20)
        setup = setup_for(bench)
        columns = []
        for parasitics in (None, SwitchParasitics()):
            made = kernel_stats(monkeypatch)
            simulate_faults(bench.dft(parasitics), faults, setup)
            columns.append(sum(stats.rhs_columns for stats in made))
        assert columns[1] > columns[0]

    def test_configs_without_the_functional_configuration(self):
        """The basis is the functional circuit's sweep even when C0 is
        not simulated: one extra ``[z, I]`` sweep, P factorizations."""
        bench = benchmark_biquad()
        faults = deviation_faults(bench.circuit, 0.20)
        case, _ = run(bench, faults, ppd=10)
        configs = [Configuration(index, 3) for index in (1, 3, 6)]
        dataset = simulate_faults(
            case.mcc(), faults, case.setup, configs=configs
        )
        assert dataset.config_labels == ("C1", "C3", "C6")
        assert_matches_reference(case, dataset)
        n_points = case.setup.grid.n_points
        assert dataset.n_factorizations == (len(configs) + 1) * n_points

    def test_follower_numbering_differs_from_the_functional(self):
        """Each opamp comes before the elements on its input nodes, so
        a follower (which drops the inverting input) numbers the nodes
        in another order than C0; rows and columns are matched by node
        name and branch key."""
        circuit = Circuit("reordered", output="o2")
        circuit.voltage_source("Vin", "in")
        circuit.opamp("OP1", "0", "n1", "o1", IDEAL_OPAMP)
        circuit.resistor("R1", "in", "n1", 1e3)
        circuit.resistor("R2", "n1", "o1", 2e3)
        circuit.capacitor("C1", "n1", "o1", 10e-9)
        circuit.opamp("OP2", "0", "n2", "o2", IDEAL_OPAMP)
        circuit.resistor("R3", "o1", "n2", 1e3)
        circuit.resistor("R4", "n2", "o2", 1e3)
        circuit.capacitor("C2", "n2", "o2", 10e-9)
        bench = BenchmarkCircuit(
            circuit=circuit,
            chain=("OP1", "OP2"),
            input_node="in",
            f0_hz=8e3,
        )
        faults = deviation_faults(circuit, 0.20)
        case, dataset = run(bench, faults, ppd=10)
        mcc = case.mcc()
        orders = [
            list(MnaSystem(mcc.emulate(config)).node_index)
            for config in dataset.configs
        ]
        assert len(orders) == 3
        assert orders[1] != orders[0] and orders[2] != orders[0]
        assert_matches_reference(case, dataset)

    @pytest.mark.parametrize(
        "seed", [1, 2, 3, 4, 5, 11, 13, 14, 21, 25, 29, 34, 65, 1138]
    )
    def test_ill_conditioned_cases(self, seed):
        """Component spreads, deep deviations, opens and shorts, and the
        near-singular ``state_variable`` followers (seeds 3, 11, 25, 29
        match, seeds 34 and 65 raise where the reference does)."""
        assert_matches_reference(build_ill_conditioned_case(seed))
