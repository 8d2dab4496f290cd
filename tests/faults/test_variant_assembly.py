"""Fault variants: stamp-program assembly and the exact per-fault path.

A :class:`~repro.analysis.batched.StampProgram` over the faulted
components assembles every deviation variant of a configuration; the
tolerance and diagnosis engines rely on it reproducing the per-fault
re-stamp ``MnaSystem(fault.apply(circuit))`` byte for byte.  The fault
simulator's faults outside the rank-1 class take that per-fault path,
and whole datasets — deviation faults mixed with open, short and
multiple faults — match the scalar reference of :mod:`repro.verify`.
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
from repro.errors import CampaignError, FaultModelError
from repro.faults import (
    DeviationFault,
    MultipleFault,
    OpenFault,
    ShortFault,
    SimulationSetup,
    bidirectional_deviation_faults,
    simulate_faults,
)
from repro.verify import Tolerances, VerifyCase
from tests.conftest import assert_matches_reference, bare_row


@pytest.mark.parametrize("name", catalog())
def test_stamp_program_variants_match_per_fault_restamp(name):
    """One program over the faulted components, one factor row per
    deviation fault (``1 + deviation`` for its own component, 1.0
    elsewhere), gives every faulty ``(G, C)`` exactly."""
    bench = build(name)
    mcc = bench.dft()
    faults = bidirectional_deviation_faults(bench.circuit, 0.2)
    components = list(dict.fromkeys(fault.target for fault in faults))
    factors = np.ones((len(faults), len(components)))
    for row, fault in enumerate(faults):
        factors[row, components.index(fault.target)] = 1.0 + fault.deviation
    for config in mcc.configurations(include_transparent=True):
        emulated = mcc.emulate(config)
        G_all, C_all = StampProgram(MnaSystem(emulated), components).assemble(
            factors
        )
        for row, fault in enumerate(faults):
            variant = MnaSystem(fault.apply(emulated))
            for ours, theirs in (
                (G_all[row], variant.G),
                (C_all[row], variant.C),
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
def test_mixed_universe_matches_reference(biquad_setup, assembly):
    """``loop`` simulates each fault in a campaign of its own,
    ``stacked`` every fault of a configuration in one unit."""
    bench = benchmark_biquad()
    universes = (
        [[fault] for fault in MIXED_UNIVERSE]
        if assembly == "loop"
        else [MIXED_UNIVERSE]
    )
    for faults in universes:
        case = VerifyCase(
            name="biquad",
            bench=bench,
            circuit=bench.circuit,
            faults=tuple(faults),
            setup=biquad_setup,
        )
        dataset = simulate_faults(case.mcc(), faults, biquad_setup)
        assert_matches_reference(case, dataset)
        assert dataset.n_solves == len(dataset.configs) * (1 + len(faults))


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
    _, row = bare_row(circuit, faults, biquad_setup)
    nominal = ac_analysis(circuit, biquad_setup.grid)
    for fault, mask, max_deviation in zip(
        faults, row.masks, row.max_deviation
    ):
        expected = evaluate_detectability(
            nominal,
            ac_analysis(fault.apply(circuit), biquad_setup.grid),
            biquad_setup.epsilon,
            biquad_setup.criterion,
        )
        assert np.array_equal(mask, expected.mask)
        if fault.target == "RQ":
            assert max_deviation == expected.max_deviation
        else:  # resistor and capacitor faults are Sherman-Morrison pairs
            assert max_deviation == pytest.approx(
                expected.max_deviation, rel=Tolerances().deviation_rtol
            )


@pytest.mark.parametrize(
    "fault, message",
    [
        pytest.param(
            DeviationFault("R9", 0.2),
            "fault fR9+20%: circuit 'biquadratic filter [C0]' has no "
            "component 'R9'",
            id="fault0-has no component 'R9'",
        ),
        pytest.param(
            DeviationFault("OP1", 0.2),
            "fault fOP1+20%: component 'OP1' is not a two-terminal passive",
            id="fault1-not a two-terminal passive",
        ),
    ],
)
def test_unassemblable_deviation_raises_fault_error(
    biquad_setup, fault, message
):
    mcc = benchmark_biquad().dft()
    with pytest.raises(CampaignError) as excinfo:
        simulate_faults(
            mcc, [DeviationFault("R1", 0.2), fault], biquad_setup
        )
    assert type(excinfo.value.__cause__) is FaultModelError
    assert str(excinfo.value.__cause__) == message
