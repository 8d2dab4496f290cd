"""Fault × configuration simulation engine.

This is the computational bottleneck the paper names in its conclusion —
"the fault detectability matrix construction implies extensive fault
simulation".  The engine sweeps every fault of a universe through every
requested DFT configuration:

* one nominal AC sweep per configuration (cached),
* one faulty AC sweep per (configuration, fault) pair,
* Definition 1 / Definition 2 evaluation of each pair.

The result is a :class:`DetectabilityDataset` from which the
fault-detectability matrix (Fig. 5), the ω-detectability table (Table 2)
and the per-pair detection masks (for test-frequency selection) are all
derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..analysis.ac import FrequencyResponse
from ..analysis.batched import ASSEMBLY_BUDGET, StampProgram
from ..analysis.kernel import KernelStats, SweepRequest, solve_sweep
from ..analysis.mna import MnaSystem
from ..analysis.sweep import FrequencyGrid
from ..circuit.components import TwoTerminal
from ..core.detectability import DetectabilityResult, evaluate_detectability
from ..core.matrix import FaultDetectabilityMatrix, OmegaDetectabilityTable
from ..dft.configuration import Configuration
from ..dft.transform import MultiConfigurationCircuit
from ..errors import AnalysisError, SingularCircuitError
from .model import DeviationFault, Fault
from .universe import check_unique_names


@dataclass(frozen=True)
class SimulationSetup:
    """Shared parameters of a fault-simulation campaign.

    Parameters
    ----------
    grid:
        Frequency grid implementing Ω_reference.
    epsilon:
        Relative detection tolerance ε (the paper uses 10%).
    output:
        Probe node; defaults to the base circuit's designated output.
    criterion:
        Deviation criterion — ``"band"`` (tolerance band around the
        magnitude response, the paper's Figure 2 picture, default) or
        ``"relative"`` (point-wise ``|ΔT/T|``).
    fault_name_style:
        ``"short"`` names columns ``fR1`` like the paper (requires a
        single fault per component); ``"full"`` keeps unique fault names
        like ``fR1+20%``.
    """

    grid: FrequencyGrid
    epsilon: float = 0.10
    output: Optional[str] = None
    criterion: str = "band"
    fault_name_style: str = "short"

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise AnalysisError("epsilon must be > 0")
        if self.criterion not in ("band", "relative"):
            raise AnalysisError(
                f"unknown deviation criterion {self.criterion!r}"
            )
        if self.fault_name_style not in ("short", "full"):
            raise AnalysisError(
                f"unknown fault_name_style {self.fault_name_style!r}"
            )


def _fault_label(fault: Fault, style: str) -> str:
    if style == "short" and hasattr(fault, "short_name"):
        return fault.short_name  # type: ignore[attr-defined]
    return fault.name


@dataclass
class DetectabilityDataset:
    """All raw results of one fault-simulation campaign."""

    configs: Tuple[Configuration, ...]
    fault_labels: Tuple[str, ...]
    setup: SimulationSetup
    nominal: Dict[int, FrequencyResponse]
    results: Dict[Tuple[int, str], DetectabilityResult]
    n_solves: int = 0
    #: LU factorizations the sweeps performed (one per solved grid point)
    n_factorizations: int = 0
    _matrix: Optional[FaultDetectabilityMatrix] = field(
        default=None, repr=False
    )
    _table: Optional[OmegaDetectabilityTable] = field(
        default=None, repr=False
    )

    # ------------------------------------------------------------------
    @property
    def config_labels(self) -> Tuple[str, ...]:
        return tuple(c.label for c in self.configs)

    @property
    def config_indices(self) -> Tuple[int, ...]:
        return tuple(c.index for c in self.configs)

    def result(self, config: Configuration, fault_label: str) -> DetectabilityResult:
        return self.results[(config.index, fault_label)]

    # ------------------------------------------------------------------
    def detectability_matrix(self) -> FaultDetectabilityMatrix:
        """Boolean Definition 1 matrix (paper Fig. 5)."""
        if self._matrix is None:
            data = np.array(
                [
                    [
                        self.results[(c.index, fault)].detectable
                        for fault in self.fault_labels
                    ]
                    for c in self.configs
                ],
                dtype=bool,
            )
            self._matrix = FaultDetectabilityMatrix(
                config_labels=self.config_labels,
                fault_names=self.fault_labels,
                data=data,
                config_indices=self.config_indices,
            )
        return self._matrix

    def omega_table(self) -> OmegaDetectabilityTable:
        """ω-detectability table (paper Table 2)."""
        if self._table is None:
            data = np.array(
                [
                    [
                        self.results[(c.index, fault)].omega_detectability
                        for fault in self.fault_labels
                    ]
                    for c in self.configs
                ],
                dtype=float,
            )
            self._table = OmegaDetectabilityTable(
                config_labels=self.config_labels,
                fault_names=self.fault_labels,
                data=data,
                config_indices=self.config_indices,
            )
        return self._table

    def detection_mask(
        self, config: Configuration, fault_label: str
    ) -> np.ndarray:
        """Per-frequency detectability of one pair (for ω-domain covers)."""
        return self.results[(config.index, fault_label)].mask

    def restricted(
        self, configs: Sequence[Configuration]
    ) -> "DetectabilityDataset":
        """Dataset keeping only ``configs`` (e.g. a partial DFT's)."""
        keep = tuple(configs)
        keep_indices = {c.index for c in keep}
        return DetectabilityDataset(
            configs=keep,
            fault_labels=self.fault_labels,
            setup=self.setup,
            nominal={
                i: r for i, r in self.nominal.items() if i in keep_indices
            },
            results={
                key: r
                for key, r in self.results.items()
                if key[0] in keep_indices
            },
            n_solves=self.n_solves,
            n_factorizations=self.n_factorizations,
        )


def _sweep_entries(circuit, output: Optional[str], faults):
    """Sweep entries of one configuration: nominal, then every fault.

    Yields ``(title, probe, out_index, request)`` tuples lazily, in
    evaluation order, so a per-fault error surfaces exactly where
    per-fault simulation raises it.  A sweep probing ground
    (``out_index < 0``) carries no request and later yields zeros
    without solving, exactly like
    :meth:`~repro.analysis.mna.MnaSystem.sweep_voltage`.

    Every :class:`DeviationFault` on a value element is one factor row
    of a single :class:`~repro.analysis.batched.StampProgram` over the
    faulted components — ``1 + deviation`` for its own component, 1.0
    elsewhere — which assembles each faulty ``(G, C)`` bit-identically
    to ``MnaSystem(fault.apply(circuit))`` without re-stamping the
    circuit.  Open, short and multiple faults, deviations of elements
    that are missing or carry no value, and any element the program
    rejects keep that per-fault assembly.
    """
    probe = output or circuit.output
    if probe is None:
        raise AnalysisError(
            f"{circuit.title}: no output node designated for AC analysis"
        )

    def entry(system):
        index = system.index_of(probe)
        request = system.sweep_request() if index >= 0 else None
        return system.circuit.title, probe, index, request

    system = MnaSystem(circuit)
    yield entry(system)

    rows = [
        (index, fault)
        for index, fault in enumerate(faults)
        if type(fault) is DeviationFault
        and fault.target in circuit
        and isinstance(circuit[fault.target], TwoTerminal)
    ]
    components = list(dict.fromkeys(fault.target for _, fault in rows))
    factors = np.ones((len(rows), len(components)))
    for row, (_, fault) in enumerate(rows):
        factors[row, components.index(fault.target)] = 1.0 + fault.deviation
    try:
        program = StampProgram(system, components) if rows else None
    except AnalysisError:
        rows = []
    row_of = {index: row for row, (index, _) in enumerate(rows)}
    batch = max(1, ASSEMBLY_BUDGET // system.size**2)
    out_index = system.index_of(probe)

    for index, fault in enumerate(faults):
        row = row_of.get(index)
        if row is None:
            yield entry(MnaSystem(fault.apply(circuit)))
        elif out_index < 0:
            yield circuit.title, probe, out_index, None
        else:
            if row % batch == 0:
                G_all, C_all = program.assemble(factors[row:row + batch])
            yield circuit.title, probe, out_index, SweepRequest(
                G=G_all[row % batch],
                C=C_all[row % batch],
                rhs=system.z,
                title=circuit.title,
            )


def _responses(entries, grid: FrequencyGrid, stats: Optional[KernelStats]):
    """Frequency response of every sweep entry, lazily and in order.

    Walking the entries in order raises the first error exactly where
    per-fault simulation would, with ``MnaSystem.sweep_voltage``'s
    singularity and finiteness messages.
    """
    for title, probe, out_index, request in entries:
        if request is None:
            values = np.zeros(grid.frequencies_hz.shape, dtype=complex)
        else:
            values = solve_sweep(request, grid.frequencies_hz, stats)[
                :, out_index, 0
            ]
            if not np.all(np.isfinite(values)):
                raise SingularCircuitError(
                    f"{title}: non-finite response in sweep"
                )
        yield FrequencyResponse(
            grid=grid, values=values, label=f"{title}:V({probe})"
        )


def simulate_configuration(
    circuit,
    output: Optional[str],
    faults: Sequence[Fault],
    labels: Sequence[str],
    setup: SimulationSetup,
    stats: Optional[KernelStats] = None,
) -> Tuple[FrequencyResponse, Dict[str, DetectabilityResult], int]:
    """One configuration's share of a campaign: nominal + per-fault sweeps.

    Returns ``(nominal_response, {label: result}, n_solves)``.  This is
    the work performed per configuration by :func:`simulate_faults` and
    per work unit by the campaign engine — keeping both paths on the
    same code guarantees bit-identical results.  Each sweep is one
    :func:`~repro.analysis.kernel.solve_sweep` call, assembled only when
    it is reached; ``stats`` accumulates the solve and factorization
    counters when given.
    """
    responses = _responses(
        _sweep_entries(circuit, output, faults), setup.grid, stats
    )
    nominal_response = next(responses)
    results = {
        label: evaluate_detectability(
            nominal_response,
            faulty_response,
            setup.epsilon,
            setup.criterion,
        )
        for label, faulty_response in zip(labels, responses)
    }
    return nominal_response, results, 1 + len(faults)


def simulate_faults(
    mcc: MultiConfigurationCircuit,
    faults: Sequence[Fault],
    setup: SimulationSetup,
    configs: Optional[Sequence[Configuration]] = None,
    executor=None,
    cache=None,
    telemetry=None,
    chunk_size: Optional[int] = None,
) -> DetectabilityDataset:
    """Run the full fault × configuration campaign.

    Parameters
    ----------
    mcc:
        The DFT-instrumented circuit.
    faults:
        Fault universe (unique names required).
    setup:
        Grid / tolerance / probe parameters.
    configs:
        Configurations to simulate; defaults to every configuration the
        DFT can emulate except the transparent one (the paper's
        ``C0 … C6`` for the 3-opamp biquad).
    executor, cache, telemetry, chunk_size:
        Campaign-engine controls (see :mod:`repro.campaign`).  Passing
        any of them routes the run through the campaign engine —
        planned, parallelisable, resumable and observable — producing a
        bit-identical dataset.  All ``None`` (the default) keeps the
        historical in-process loop.
    """
    if (
        executor is not None
        or cache is not None
        or telemetry is not None
        or chunk_size is not None
    ):
        from ..campaign import run_campaign

        return run_campaign(
            mcc,
            faults,
            setup,
            configs=configs,
            engine="standard",
            chunk_size=chunk_size,
            executor=executor,
            cache=cache,
            telemetry=telemetry,
        )

    check_unique_names(faults)
    if configs is None:
        configs = mcc.configurations(
            include_functional=True, include_transparent=False
        )
    if not configs:
        raise AnalysisError("no configurations to simulate")

    labels = [
        _fault_label(fault, setup.fault_name_style) for fault in faults
    ]
    if len(set(labels)) != len(labels):
        raise AnalysisError(
            "fault labels collide; use fault_name_style='full' for "
            "universes with several faults per component"
        )

    stats = KernelStats()
    nominal: Dict[int, FrequencyResponse] = {}
    results: Dict[Tuple[int, str], DetectabilityResult] = {}
    n_solves = 0

    for config in configs:
        emulated = mcc.emulate(config)
        # Probe priority: explicit setup override, then the emulated
        # circuit's own output (parasitics may move it to the external
        # pin), then the base circuit's.
        output = setup.output or emulated.output or mcc.base.output
        nominal_response, config_results, config_solves = (
            simulate_configuration(
                emulated, output, faults, labels, setup, stats
            )
        )
        nominal[config.index] = nominal_response
        n_solves += config_solves
        for label, result in config_results.items():
            results[(config.index, label)] = result

    return DetectabilityDataset(
        configs=tuple(configs),
        fault_labels=tuple(labels),
        setup=setup,
        nominal=nominal,
        results=results,
        n_solves=n_solves,
        n_factorizations=stats.factorizations,
    )


def simulate_single_configuration(
    circuit,
    faults: Sequence[Fault],
    setup: SimulationSetup,
    label: str = "C0",
) -> DetectabilityDataset:
    """Fault simulation of a bare circuit (no DFT) as configuration C0.

    Used for the initial-testability studies (paper §2, Graph 1).
    """
    check_unique_names(faults)
    labels = [
        _fault_label(fault, setup.fault_name_style) for fault in faults
    ]
    stats = KernelStats()
    nominal_response, results, n_solves = simulate_configuration(
        circuit, setup.output or circuit.output, faults, labels, setup,
        stats,
    )
    config = Configuration(0, 1)
    return DetectabilityDataset(
        configs=(config,),
        fault_labels=tuple(labels),
        setup=setup,
        nominal={0: nominal_response},
        results={
            (0, fault_label): result
            for fault_label, result in results.items()
        },
        n_solves=n_solves,
        n_factorizations=stats.factorizations,
    )
