"""Row-copied configurations on random DFT variants.

Hypothesis draws a catalog circuit with at most three opamps (``biquad``
also with the single-pole opamps of ``test_finite_gbw_opamps``), a
configurable subset of its chain and switch parasitics on or off.  The
campaign must reproduce the scalar reference
(``tests/conftest.py::assert_matches_reference``), and every
configuration it writes as a row copy of the functional stamp
(:func:`repro.faults.simulator.configuration_variant`) must equal
``MnaSystem(mcc.emulate(config))`` bit for bit.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

from hypothesis import given, settings, strategies as st

from repro.analysis import KernelStats, MnaSystem, decade_grid
from repro.circuit import OpAmpModel
from repro.circuits import BiquadDesign, build, catalog, tow_thomas_biquad
from repro.circuits.catalog import BenchmarkCircuit
from repro.dft import SwitchParasitics
from repro.faults import SimulationSetup, deviation_faults
from repro.faults.simulator import (
    Basis,
    configuration_variant,
    functional_circuit,
)
from repro.verify import VerifyCase
from tests.conftest import assert_matches_reference

CIRCUITS = tuple(name for name in catalog() if build(name).n_opamps <= 3)


def single_pole_biquad() -> BenchmarkCircuit:
    design = BiquadDesign()
    model = OpAmpModel(kind="single_pole", a0=2e5, gbw_hz=1e6)
    return BenchmarkCircuit(
        circuit=tow_thomas_biquad(design, model=model),
        chain=("OP1", "OP2", "OP3"),
        input_node="in",
        f0_hz=design.f0_hz,
    )


@dataclass(frozen=True)
class VariantCase(VerifyCase):
    """A case under a variant of its benchmark's DFT."""

    parasitics: Optional[SwitchParasitics] = None
    configurable: Tuple[int, ...] = ()

    def mcc(self):
        return self.bench.dft(self.parasitics).restrict(self.configurable)


@st.composite
def variants(draw):
    name = draw(st.sampled_from(CIRCUITS))
    bench = build(name)
    if name == "biquad" and draw(st.booleans()):
        bench = single_pole_biquad()
    positions = range(1, bench.n_opamps + 1)
    return VariantCase(
        name=name,
        bench=bench,
        circuit=bench.circuit,
        faults=tuple(deviation_faults(bench.circuit, 0.20)),
        setup=SimulationSetup(
            grid=decade_grid(bench.f0_hz, 2, 2, points_per_decade=5)
        ),
        parasitics=draw(st.sampled_from((None, SwitchParasitics()))),
        configurable=tuple(
            sorted(draw(st.sets(st.sampled_from(positions), min_size=1)))
        ),
    )


@settings(max_examples=30, deadline=None)
@given(variants())
def test_row_copies_are_full_stamps(case):
    assert_matches_reference(case)
    mcc = case.mcc()
    basis = Basis(functional_circuit(mcc), case.setup.grid)
    for config in mcc.configurations():
        variant = configuration_variant(mcc, config, basis, KernelStats())
        if variant.rows is None and variant.system is not basis.system:
            assert mcc.parasitics is not None  # the only full stamps here
            continue
        full = MnaSystem(mcc.emulate(config))
        copy = variant.system
        assert copy.title == full.title
        assert copy.node_index == full.node_index
        assert copy.branch_index == full.branch_index
        for name in ("G", "C", "z"):
            bits = getattr(full, name).tobytes()
            assert getattr(copy, name).tobytes() == bits
