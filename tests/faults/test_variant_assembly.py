"""Fault variants assembled by one stamp program per configuration.

Every deviation fault of a configuration is a factor row of a single
:class:`~repro.analysis.batched.StampProgram`; these tests hold that
assembly to the per-fault re-stamp ``MnaSystem(fault.apply(circuit))``
byte for byte, and hold whole datasets — deviation faults mixed with
open, short and multiple faults — to the scalar reference of
:mod:`repro.verify`.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.analysis import ac_analysis, decade_grid
from repro.analysis.batched import StampProgram
from repro.analysis.mna import MnaSystem
from repro.circuit import Circuit
from repro.circuit.components import TwoTerminal
from repro.circuits import benchmark_biquad, build, catalog
from repro.core.detectability import evaluate_detectability
from repro.errors import FaultModelError
from repro.faults import (
    DeviationFault,
    MultipleFault,
    OpenFault,
    ShortFault,
    SimulationSetup,
    bidirectional_deviation_faults,
    simulate_faults,
    simulate_single_configuration,
)
from repro.faults import simulator
from repro.faults.simulator import _sweep_entries
from repro.verify.invariants import reference_dataset


def assert_same_results(reference, candidate):
    assert reference.results.keys() == candidate.results.keys()
    for key, expected in reference.results.items():
        result = candidate.results[key]
        assert np.array_equal(result.mask, expected.mask), key
        assert result.omega_detectability == expected.omega_detectability
        assert result.max_deviation == expected.max_deviation, key
    for index, expected in reference.nominal.items():
        assert (
            candidate.nominal[index].values.tobytes()
            == expected.values.tobytes()
        )


@pytest.mark.parametrize("name", catalog())
def test_stamp_program_variants_match_per_fault_restamp(name):
    bench = build(name)
    mcc = bench.dft()
    faults = bidirectional_deviation_faults(bench.circuit, 0.2)
    for config in mcc.configurations(include_transparent=True):
        emulated = mcc.emulate(config)
        output = emulated.output or mcc.base.output
        entries = list(_sweep_entries(emulated, output, faults))
        assert len(entries) == 1 + len(faults)
        for fault, (title, _, _, request) in zip(faults, entries[1:]):
            variant = MnaSystem(fault.apply(emulated))
            assert title == variant.circuit.title
            for ours, theirs in (
                (request.G, variant.G),
                (request.C, variant.C),
                (request.rhs[:, 0], variant.z),
            ):
                assert ours.tobytes() == theirs.tobytes(), (
                    config.label,
                    fault.name,
                )


@pytest.fixture(scope="module")
def biquad_setup():
    bench = benchmark_biquad()
    grid = decade_grid(bench.f0_hz, 2, 2, points_per_decade=15)
    return SimulationSetup(grid=grid, fault_name_style="full")


MIXED_UNIVERSE = [
    DeviationFault("R1", 0.2),
    OpenFault("C1"),
    DeviationFault("C2", -0.3),
    ShortFault("R2"),
    MultipleFault((DeviationFault("R3", 0.5), DeviationFault("R4", -0.2))),
    DeviationFault("R1", -0.4),
    OpenFault("R5"),
]


@pytest.mark.parametrize("assembly", ["loop", "stacked"])
def test_mixed_universe_matches_reference(biquad_setup, assembly, monkeypatch):
    """``loop`` assembles one deviation variant per program call,
    ``stacked`` every variant of a configuration in one call."""
    if assembly == "loop":
        monkeypatch.setattr(simulator, "ASSEMBLY_BUDGET", 1)
    batches = []
    assemble = StampProgram.assemble

    def counted(program, factors):
        batches.append(len(factors))
        return assemble(program, factors)

    monkeypatch.setattr(StampProgram, "assemble", counted)
    mcc = benchmark_biquad().dft()
    dataset = simulate_faults(mcc, MIXED_UNIVERSE, biquad_setup)
    deviations = sum(type(f) is DeviationFault for f in MIXED_UNIVERSE)
    per_config = [1] * deviations if assembly == "loop" else [deviations]
    assert batches == per_config * len(dataset.configs)
    reference = reference_dataset(
        mcc, MIXED_UNIVERSE, biquad_setup, dataset.configs
    )
    assert_same_results(reference, dataset)
    assert dataset.n_solves == len(dataset.configs) * (
        1 + len(MIXED_UNIVERSE)
    )


@dataclass(frozen=True)
class SquareLawResistor(TwoTerminal):
    """A value element stamping ``1/value²``, which no replay reproduces."""

    def stamp(self, ctx):
        ctx.admittance(self.n1, self.n2, g=1.0 / self.value**2)


def test_rejected_element_keeps_per_fault_path(biquad_setup):
    circuit = Circuit("square law", output="out")
    circuit.voltage_source("V1", "in")
    circuit.add(SquareLawResistor("RQ", "in", "out", 30.0))
    circuit.resistor("R2", "out", "0", 1e3)
    circuit.capacitor("C1", "out", "0", 1e-7)
    faults = bidirectional_deviation_faults(circuit, 0.3)
    dataset = simulate_single_configuration(circuit, faults, biquad_setup)
    nominal = ac_analysis(circuit, biquad_setup.grid)
    for fault in faults:
        expected = evaluate_detectability(
            nominal,
            ac_analysis(fault.apply(circuit), biquad_setup.grid),
            biquad_setup.epsilon,
            biquad_setup.criterion,
        )
        result = dataset.results[(0, fault.name)]
        assert np.array_equal(result.mask, expected.mask)
        assert result.max_deviation == expected.max_deviation


@pytest.mark.parametrize(
    "fault, message",
    [
        (DeviationFault("R9", 0.2), "has no component 'R9'"),
        (DeviationFault("OP1", 0.2), "not a two-terminal passive"),
    ],
)
def test_unassemblable_deviation_raises_fault_error(
    biquad_setup, fault, message
):
    mcc = benchmark_biquad().dft()
    with pytest.raises(FaultModelError, match=message):
        simulate_faults(
            mcc, [DeviationFault("R1", 0.2), fault], biquad_setup
        )
