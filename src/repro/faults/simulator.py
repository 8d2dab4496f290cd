"""Fault × configuration simulation engine.

This is the computational bottleneck the paper names in its conclusion —
"the fault detectability matrix construction implies extensive fault
simulation".  The engine evaluates every fault of a universe in every
requested DFT configuration and turns each (configuration, fault) pair
into a Definition 1 / Definition 2 result.

A fault on a resistor or capacitor between nodes *i* and *j* changes the
MNA matrix by a rank-1 update ``A' = A + δ(ω)·u·uᵀ`` with
``u = e_i − e_j``, so by the Sherman–Morrison identity

    ``x'_out = x_out − δ·(uᵀx) / (1 + δ·uᵀA⁻¹u) · (A⁻¹u)_out``

follows from the nominal solve.  Per configuration the engine makes
**one** multi-RHS sweep of ``[z, I]`` — the nominal solution and ``A⁻¹``
at every grid point, one LU factorization each — and evaluates every
rank-1 fault from it.  A certificate bounds each (fault, grid point):

* a pair whose denominator cancels — cancellation factor
  ``(1 + |δ·uᵀA⁻¹u|) / |1 + δ·uᵀA⁻¹u|`` beyond
  :data:`CANCELLATION_LIMIT` — is re-swept exactly, so a singular
  variant raises the exact sweep's :class:`SingularCircuitError`;
* a grid point whose deviation lies within its forward-error bound of
  ε is re-solved exactly at that frequency, so every Definition 1
  verdict, mask and ω-detectability equals the per-fault sweep's bit
  for bit;
* a pair whose peak deviation the bound cannot pin down to
  :data:`PEAK_LIMIT` is re-swept exactly.

Both count as ``sm_fallbacks``.  Faults outside the rank-1 class
(multiple faults, inductors, non-passive targets) get the exact
per-fault sweep.  ``docs/performance.md`` derives the bound and the
constants.

The result is a :class:`DetectabilityDataset` from which the
fault-detectability matrix (Fig. 5), the ω-detectability table (Table 2)
and the per-pair detection masks (for test-frequency selection) are all
derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.ac import FrequencyResponse
from ..analysis.kernel import KernelStats, frequency_chunk, solve_sweep
from ..analysis.mna import MnaSystem
from ..analysis.sweep import FrequencyGrid
from ..circuit.components import Capacitor, Resistor
from ..circuit.netlist import Circuit
from ..core.detectability import DetectabilityResult, evaluate_detectability
from ..core.matrix import FaultDetectabilityMatrix, OmegaDetectabilityTable
from ..dft.configuration import Configuration
from ..dft.transform import MultiConfigurationCircuit
from ..errors import AnalysisError, SingularCircuitError
from .model import DeviationFault, Fault, OpenFault, ShortFault
from .universe import check_unique_names

#: unit roundoff of the float64 solves
EPS = float(np.finfo(float).eps)
#: cancellation factor beyond which a rank-1 pair is re-swept exactly:
#: the update then keeps fewer than 10 of its 16 digits
CANCELLATION_LIMIT = 1e6
#: error bound of the peak deviation, relative to ``max(peak, 1)``,
#: beyond which a rank-1 pair is re-swept exactly
PEAK_LIMIT = 1e-4
#: solves whose backward error the certificate adds up: the
#: Sherman–Morrison sweep and the exact solve it stands in for
SOLVES_COMPARED = 2
#: unit roundoffs charged to each elementwise evaluation step
ROUNDING_GAIN = 4


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
    #: grid points re-solved exactly where the Sherman–Morrison
    #: certificate did not hold (a re-swept pair counts every point)
    sm_fallbacks: int = 0
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
            sm_fallbacks=self.sm_fallbacks,
        )


def rank1_update(
    fault: Fault, circuit: Circuit
) -> Optional[Tuple[str, str, float, float]]:
    """``(node+, node−, Δg, Δc)`` of a rank-1 fault, or ``None``.

    A deviation, open or short on a resistor or capacitor changes the
    MNA pencil by ``δ(ω)·u·uᵀ`` with ``u = e(node+) − e(node−)`` and
    ``δ(ω) = Δg + jω·Δc``, the faulty-minus-nominal admittance of the
    element.  Multiple faults, inductors (which own a branch row),
    other element types and missing targets return ``None`` and keep
    the exact per-fault sweep, which also raises their fault-model
    errors.
    """
    if type(fault) not in (DeviationFault, OpenFault, ShortFault):
        return None
    if fault.component not in circuit:
        return None
    element = circuit[fault.component]
    if type(element) not in (Resistor, Capacitor):
        return None
    if type(fault) is DeviationFault:
        faulty = element.scaled(1.0 + fault.deviation)
    else:
        r = fault.r_open if type(fault) is OpenFault else fault.r_short
        faulty = Resistor(element.name, element.n1, element.n2, r)

    def admittance(part) -> Tuple[float, float]:
        if type(part) is Resistor:
            return 1.0 / part.value, 0.0
        return 0.0, part.value

    (g_old, c_old), (g_new, c_new) = admittance(element), admittance(faulty)
    return element.n1, element.n2, g_new - g_old, c_new - c_old


def _exact_values(
    circuit: Circuit,
    fault: Fault,
    probe: str,
    frequencies: np.ndarray,
    stats: KernelStats,
) -> np.ndarray:
    """``V(probe)`` of the re-stamped faulty circuit over ``frequencies``.

    One :func:`~repro.analysis.kernel.solve_sweep` of
    ``MnaSystem(fault.apply(circuit))`` with its "MNA matrix singular"
    and non-finite errors, exactly as
    :meth:`~repro.analysis.mna.MnaSystem.sweep_voltage` raises them.
    """
    system = MnaSystem(fault.apply(circuit))
    return system.sweep_voltage(probe, frequencies, stats)


def _certified_rank1(
    solutions: np.ndarray,
    out: int,
    updates: Sequence[Tuple[int, int, float, float]],
    system: MnaSystem,
    omega: np.ndarray,
    setup: SimulationSetup,
) -> List[Optional[Tuple[np.ndarray, np.ndarray]]]:
    """Sherman–Morrison responses of rank-1 faults, with their certificate.

    ``solutions`` is the ``(P, n, 1+n)`` sweep of ``[z, I]``: the
    nominal solution ``x`` and ``A⁻¹`` at every grid point.  Each update
    is ``(i, j, Δg, Δc)`` with node indices (−1 for ground).  For fault
    ``f`` at grid point ``k``

    ``y' = x_out − δ·(uᵀx)/(1 + δ·uᵀA⁻¹u) · (A⁻¹u)_out``

    Returns one entry per update: ``None`` when the pair must be
    re-swept exactly (a cancellation factor beyond
    :data:`CANCELLATION_LIMIT`, a peak-deviation error bound beyond
    :data:`PEAK_LIMIT` or a non-finite value), otherwise
    ``(values, near)`` where ``near`` indexes the grid points whose
    deviation lies within its error bound of ε, to be re-solved
    exactly.  The bound is derived in ``docs/performance.md``.
    """
    n = system.size
    x = solutions[:, :, 0]
    inv = solutions[:, :, 1:]
    rows = np.array([update[0] for update in updates])
    cols = np.array([update[1] for update in updates])
    outs = np.full(rows.shape, out)
    delta = (
        np.array([update[2] for update in updates])[np.newaxis, :]
        + 1j * omega[:, np.newaxis]
        * np.array([update[3] for update in updates])[np.newaxis, :]
    )

    def node(values: np.ndarray, index: np.ndarray) -> np.ndarray:
        picked = values[:, index]
        picked[:, index < 0] = 0.0
        return picked

    def entry(r: np.ndarray, c: np.ndarray) -> np.ndarray:
        picked = inv[:, r, c]
        picked[:, (r < 0) | (c < 0)] = 0.0
        return picked

    x_out = x[:, out]
    ux = node(x, rows) - node(x, cols)
    uw = entry(rows, rows) - entry(rows, cols) - entry(cols, rows) + entry(
        cols, cols
    )
    w_out = entry(outs, rows) - entry(outs, cols)
    du = delta * uw
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        denominator = 1.0 + du
        coef = delta * ux / denominator
        values = x_out[:, np.newaxis] - coef * w_out
        kappa = (1.0 + np.abs(du)) / np.abs(denominator)

        # first-order forward-error bound of the faulty output, shared by
        # this update and the exact solve of A' = A + δuuᵀ it replaces;
        # |re| + |im| bounds each |A⁻¹| entry, taken one frequency chunk
        # at a time so the temporary stays within STACK_BUDGET
        row_sum = np.empty((omega.size, n))
        col_max = np.empty((omega.size, n))
        chunk = frequency_chunk(n)
        for start in range(0, omega.size, chunk):
            parts = np.abs(inv[start:start + chunk].view(float))
            row_sum[start:start + chunk] = (
                parts.reshape(-1, 2 * n) @ np.ones(2 * n)
            ).reshape(-1, n)
            col_max[start:start + chunk] = (
                parts.max(axis=1).reshape(-1, n, 2).sum(axis=2)
            )
        x_norm = np.abs(x).max(axis=1)[:, np.newaxis] + np.abs(coef) * (
            node(col_max, rows) + node(col_max, cols)
        )
        row_norm = row_sum[:, out, np.newaxis] + np.abs(
            delta * w_out / denominator
        ) * (node(row_sum, rows) + node(row_sum, cols))
        row_g = np.abs(system.G).sum(axis=1)
        row_c = np.abs(system.C).sum(axis=1)
        a_norm = (
            row_g[np.newaxis, :] + omega[:, np.newaxis] * row_c[np.newaxis, :]
        ).max(axis=1)[:, np.newaxis] + 2.0 * np.abs(delta)
        bound = SOLVES_COMPARED * n * EPS * row_norm * a_norm * x_norm + (
            ROUNDING_GAIN * EPS * (
                np.abs(x_out)[:, np.newaxis] + kappa * np.abs(coef * w_out)
            )
        )

        # Definition 1 compares |ΔT| with a threshold: ε·max|T| (band),
        # ε·|T| (relative) or, where |T| is numerically zero, eps·max|T|
        nominal = np.abs(x_out)[:, np.newaxis]
        faulty = np.abs(values)
        change = np.abs(faulty - nominal)
        peak = float(np.max(nominal))
        if setup.criterion == "band":
            threshold = np.full_like(nominal, setup.epsilon * peak)
            scale = np.full_like(nominal, peak)
        else:
            tiny = EPS * peak
            threshold = np.where(nominal > tiny, setup.epsilon * nominal, tiny)
            scale = np.where(nominal > tiny, nominal, np.inf)
        near = np.abs(change - threshold) <= bound + (
            ROUNDING_GAIN * EPS * (threshold + faulty + nominal)
        )
        # the points that may hold the peak deviation, and its error
        deviation = change / scale
        error = bound / scale
        top = deviation.max(axis=0)
        peak_error = np.where(deviation + error >= top, error, 0.0).max(axis=0)
        resweep = (
            np.any(~(kappa <= CANCELLATION_LIMIT), axis=0)
            | ~np.all(np.isfinite(values), axis=0)
            | ~np.all(np.isfinite(bound), axis=0)
            | (peak_error > PEAK_LIMIT * np.maximum(top, 1.0))
        )
    return [
        None
        if resweep[column]
        else (values[:, column], np.flatnonzero(near[:, column]))
        for column in range(len(updates))
    ]


def simulate_configuration(
    circuit,
    output: Optional[str],
    faults: Sequence[Fault],
    labels: Sequence[str],
    setup: SimulationSetup,
    stats: Optional[KernelStats] = None,
) -> Tuple[FrequencyResponse, Dict[str, DetectabilityResult], int]:
    """One configuration's share of a campaign.

    Returns ``(nominal_response, {label: result}, n_solves)``, where
    ``n_solves`` is the logical sweep count ``1 + len(faults)``.  This
    is the work :func:`simulate_faults` does per configuration and the
    campaign engine per work unit, so both paths give identical
    results.

    One multi-RHS sweep of ``[z, I]`` gives the nominal response and
    ``A⁻¹`` at every grid point; every rank-1 fault
    (:func:`rank1_update`) then follows by Sherman–Morrison, certified
    by :func:`_certified_rank1`.  A pair the certificate rejects is
    re-swept exactly, and a grid point within its error bound of ε is
    re-solved exactly; both count as ``stats.sm_fallbacks``.  Other
    faults get the exact per-fault sweep.  Faults are finished in
    order, so the first error raised is the one a sweep per fault
    would raise.
    """
    probe = output or circuit.output
    if probe is None:
        raise AnalysisError(
            f"{circuit.title}: no output node designated for AC analysis"
        )
    stats = stats if stats is not None else KernelStats()
    grid = setup.grid
    frequencies = grid.frequencies_hz
    system = MnaSystem(circuit)
    out = system.index_of(probe)

    updates: Dict[int, Tuple[int, int, float, float]] = {}
    certified: Dict[int, Optional[Tuple[np.ndarray, np.ndarray]]] = {}
    if out < 0:
        nominal_values = np.zeros(frequencies.shape, dtype=complex)
    else:
        for index, fault in enumerate(faults):
            update = rank1_update(fault, circuit)
            if update is not None:
                n1, n2, dg, dc = update
                updates[index] = (
                    system.index_of(n1), system.index_of(n2), dg, dc
                )
        rhs = system.z[:, np.newaxis]
        if updates:
            rhs = np.hstack([rhs, np.eye(system.size)])
        solutions = solve_sweep(system.sweep_request(rhs), frequencies, stats)
        # a copy, not a view: the response must not keep the whole
        # (P, n, 1+n) solution block alive
        nominal_values = solutions[:, out, 0].copy()
        if not np.all(np.isfinite(nominal_values)):
            raise SingularCircuitError(
                f"{circuit.title}: non-finite response in sweep"
            )
        if updates:
            certified = dict(
                zip(
                    updates,
                    _certified_rank1(
                        solutions, out, list(updates.values()), system,
                        2.0 * np.pi * frequencies, setup,
                    ),
                )
            )
    nominal_response = FrequencyResponse(
        grid=grid, values=nominal_values, label=f"{circuit.title}:V({probe})"
    )

    results: Dict[str, DetectabilityResult] = {}
    for index, (fault, label) in enumerate(zip(faults, labels)):
        values = None
        if certified.get(index) is not None:
            values, near = certified[index]
            if near.size:
                stats.sm_fallbacks += near.size
                try:
                    values[near] = _exact_values(
                        circuit, fault, probe, frequencies[near], stats
                    )
                except SingularCircuitError:
                    # the whole sweep raises the error a per-fault
                    # sweep raises, naming the right frequency chunk
                    values = None
        if values is None:
            if index in updates:
                stats.sm_fallbacks += frequencies.size
            values = _exact_values(circuit, fault, probe, frequencies, stats)
        results[label] = evaluate_detectability(
            nominal_response,
            FrequencyResponse(grid=grid, values=values),
            setup.epsilon,
            setup.criterion,
        )
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
        sm_fallbacks=stats.sm_fallbacks,
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
        sm_fallbacks=stats.sm_fallbacks,
    )
