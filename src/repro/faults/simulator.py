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

follows from the nominal solve and a few entries of ``A⁻¹``.  Every
configuration of the multi-configuration DFT is the functional circuit
C0 with some opamps in follower mode, so its pencil is C0's with its
followers' branch rows copied in (:func:`configuration_variant`) and
differs from it in those rows S: ``A_c = A₀ + E_S·D_Sᵀ``.  A campaign
therefore makes **one** multi-RHS sweep of ``[z, I]`` over C0 (a
:class:`Basis`: the nominal solution and ``Y = A₀⁻¹`` at every grid
point, and the entries of ``Y`` its rank-1 faults read), and every other
configuration sweeps only ``[z, E_S]`` — its exact nominal solution and
``Z = A_c⁻¹E_S`` — from which ``A_c⁻¹ = Y − Z·(D_SᵀY)`` gives the
entries each fault reads.  Every configuration keeps its own LU, one
factorization per grid point.  A certificate bounds each (fault, grid
point):

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

Definitions 1 and 2 are evaluated once per configuration, over the
``(F, P)`` block of its faulty responses.  The result is a
:class:`DetectabilityDataset` of ``(C, F, P)`` masks and ``(C, F)``
values, of which the fault-detectability matrix (Fig. 5), the
ω-detectability table (Table 2) and the per-pair detection masks (for
test-frequency selection) are slices.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..analysis.ac import FrequencyResponse
from ..analysis.batched import ZERO_NOMINAL_BAND
from ..analysis.kernel import KernelStats, frequency_chunk, solve_sweep
from ..analysis.mna import MnaSystem, node_numbering
from ..analysis.sweep import FrequencyGrid
from ..circuit.components import Capacitor, Resistor
from ..circuit.netlist import Circuit
from ..core.detectability import (
    BAND,
    DetectabilityResult,
    Detections,
    evaluate_block,
)
from ..core.matrix import FaultDetectabilityMatrix, OmegaDetectabilityTable
from ..dft.configuration import Configuration
from ..dft.transform import MultiConfigurationCircuit
from ..errors import AnalysisError, CampaignError, SingularCircuitError
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


def fault_labels(faults: Sequence[Fault], style: str) -> List[str]:
    """Matrix column labels of a fault universe, one per fault.

    Raises :func:`~repro.faults.universe.check_unique_names`'s error on
    repeated fault names, and :class:`~repro.errors.CampaignError` when
    two labels collide: the ``"short"`` style names a column after its
    component, so a universe with several faults per component needs
    ``"full"``.
    """
    check_unique_names(faults)
    labels = [_fault_label(fault, style) for fault in faults]
    if len(set(labels)) != len(labels):
        raise CampaignError(
            "fault labels collide; use fault_name_style='full' for "
            "universes with several faults per component"
        )
    return labels


def _read_only(array, dtype, shape: Tuple[int, ...]) -> np.ndarray:
    """A read-only view of ``array`` as ``dtype``, checked to be ``shape``."""
    view = np.asarray(array, dtype=dtype).view()
    if view.shape != shape:
        raise AnalysisError(
            f"dataset array of shape {view.shape}, expected {shape}"
        )
    view.flags.writeable = False
    return view


@dataclass
class DetectabilityDataset:
    """All results of one fault-simulation campaign, as arrays.

    Row ``i`` of every array is ``configs[i]`` and column ``j`` is
    ``fault_labels[j]``; ``P`` is the grid's point count.  The arrays
    are read-only, and so is every view the accessors return.
    """

    configs: Tuple[Configuration, ...]
    fault_labels: Tuple[str, ...]
    setup: SimulationSetup
    nominal: Dict[int, FrequencyResponse]
    #: ``(C, F, P)`` Definition 1 detection region of each pair
    masks: np.ndarray
    #: ``(C, F)`` Definition 2 value of each pair, in ``[0, 1]``
    omega_detectability: np.ndarray
    #: ``(C, F)`` peak deviation of each pair
    max_deviation: np.ndarray
    #: ``(C, F)`` frequency of each pair's peak deviation
    f_max_deviation_hz: np.ndarray
    n_solves: int = 0
    #: LU factorizations the sweeps performed (one per solved grid point)
    n_factorizations: int = 0
    #: grid points re-solved exactly where the Sherman–Morrison
    #: certificate did not hold (a re-swept pair counts every point)
    sm_fallbacks: int = 0
    #: ``(C, F)`` Definition 1 verdict of each pair: its mask is not empty
    detectable: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        shape = (len(self.configs), len(self.fault_labels))
        self.masks = _read_only(
            self.masks, bool, shape + (self.setup.grid.n_points,)
        )
        for name in ("omega_detectability", "max_deviation",
                     "f_max_deviation_hz"):
            setattr(self, name, _read_only(getattr(self, name), float, shape))
        self.detectable = _read_only(self.masks.any(axis=2), bool, shape)
        self._rows = {c.index: i for i, c in enumerate(self.configs)}
        self._columns = {f: j for j, f in enumerate(self.fault_labels)}

    # ------------------------------------------------------------------
    @property
    def config_labels(self) -> Tuple[str, ...]:
        return tuple(c.label for c in self.configs)

    @property
    def config_indices(self) -> Tuple[int, ...]:
        return tuple(c.index for c in self.configs)

    def _pair(self, config: Configuration, label: str) -> Tuple[int, int]:
        return self._rows[config.index], self._columns[label]

    def result(self, config: Configuration, fault_label: str) -> DetectabilityResult:
        """One pair's Definitions 1 and 2, read from the arrays."""
        pair = self._pair(config, fault_label)
        return DetectabilityResult(
            detectable=bool(self.detectable[pair]),
            omega_detectability=float(self.omega_detectability[pair]),
            max_deviation=float(self.max_deviation[pair]),
            f_max_deviation_hz=float(self.f_max_deviation_hz[pair]),
            mask=self.masks[pair],
        )

    # ------------------------------------------------------------------
    def detectability_matrix(self) -> FaultDetectabilityMatrix:
        """Boolean Definition 1 matrix (paper Fig. 5)."""
        return FaultDetectabilityMatrix(
            config_labels=self.config_labels,
            fault_names=self.fault_labels,
            data=self.detectable,
            config_indices=self.config_indices,
        )

    def omega_table(self) -> OmegaDetectabilityTable:
        """ω-detectability table (paper Table 2)."""
        return OmegaDetectabilityTable(
            config_labels=self.config_labels,
            fault_names=self.fault_labels,
            data=self.omega_detectability,
            config_indices=self.config_indices,
        )

    def detection_mask(
        self, config: Configuration, fault_label: str
    ) -> np.ndarray:
        """Per-frequency detectability of one pair (for ω-domain covers)."""
        return self.masks[self._pair(config, fault_label)]

    def restricted(
        self, configs: Sequence[Configuration]
    ) -> "DetectabilityDataset":
        """Dataset keeping only ``configs`` (e.g. a partial DFT's)."""
        keep = tuple(configs)
        rows = [self._rows[c.index] for c in keep]
        keep_indices = {c.index for c in keep}
        return DetectabilityDataset(
            configs=keep,
            fault_labels=self.fault_labels,
            setup=self.setup,
            nominal={
                i: r for i, r in self.nominal.items() if i in keep_indices
            },
            masks=self.masks[rows],
            omega_detectability=self.omega_detectability[rows],
            max_deviation=self.max_deviation[rows],
            f_max_deviation_hz=self.f_max_deviation_hz[rows],
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


class _Updates(NamedTuple):
    """The rank-1 faults of a universe in one circuit's numbering.

    ``columns`` are their positions in the universe; the others hold one
    entry per rank-1 fault: the node indices of ``u`` (−1 for ground)
    and its :func:`rank1_update` admittance change.
    """

    columns: Tuple[int, ...]
    rows: np.ndarray
    cols: np.ndarray
    dg: np.ndarray
    dc: np.ndarray


def _rank1_updates(
    circuit: Circuit, system: MnaSystem, faults: Sequence[Fault]
) -> _Updates:
    """The :class:`_Updates` of ``faults`` on ``circuit``."""
    found = []
    for index, fault in enumerate(faults):
        update = rank1_update(fault, circuit)
        if update is not None:
            n1, n2, dg, dc = update
            found.append(
                (index, system.index_of(n1), system.index_of(n2), dg, dc)
            )
    if not found:
        return _Updates((), *(np.empty(0) for _ in range(4)))
    columns, *arrays = zip(*found)
    return _Updates(columns, *map(np.array, arrays))


class _Entries(NamedTuple):
    """What a block of rank-1 updates reads of an inverse ``A⁻¹``.

    ``(P, U)`` arrays of ``δ(ω)``, ``uᵀA⁻¹u`` and ``(A⁻¹u)_out``, and
    the bounds the certificate charges: ``Σ_c |A⁻¹[r, c]|`` for the rows
    ``[out, rows, cols]`` (``(P, 1 + 2U)``) and ``max_r |A⁻¹[r, c]|``
    for the columns ``[rows, cols]`` (``(P, 2U)``).
    """

    delta: np.ndarray
    uw: np.ndarray
    w_out: np.ndarray
    sums: np.ndarray
    maxima: np.ndarray


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


def functional_circuit(mcc: MultiConfigurationCircuit) -> Circuit:
    """The functional configuration C0 of ``mcc``: no opamp a follower."""
    return mcc.emulate(Configuration(0, mcc.n_opamps))


def _pencil_norm(system: MnaSystem, omega: np.ndarray) -> np.ndarray:
    """``max_r Σ_c (|G_rc| + ω|C_rc|) ≥ ‖G + jωC‖∞`` at every ω."""
    row_g = np.abs(system.G).sum(axis=1)
    row_c = np.abs(system.C).sum(axis=1)
    return (
        row_g[np.newaxis, :] + omega[:, np.newaxis] * row_c[np.newaxis, :]
    ).max(axis=1)


def _magnitudes(inverse: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Row sums and column maxima of ``|A⁻¹|`` at every grid point.

    ``|re| + |im|`` bounds each entry; the copy is taken one frequency
    chunk at a time so the temporary stays within ``STACK_BUDGET``.
    """
    points, n = inverse.shape[:2]
    row_sum = np.empty((points, n))
    col_max = np.empty((points, n))
    chunk = frequency_chunk(n)
    for start in range(0, points, chunk):
        parts = np.abs(inverse[start:start + chunk].view(float))
        row_sum[start:start + chunk] = (
            parts.reshape(-1, 2 * n) @ np.ones(2 * n)
        ).reshape(-1, n)
        col_max[start:start + chunk] = (
            parts.max(axis=1).reshape(-1, n, 2).sum(axis=2)
        )
    return row_sum, col_max


class Basis:
    """The ``[z, I]`` sweep of one circuit, which its variants reuse.

    A campaign's basis is its functional configuration C0: the sweep
    gives C0's nominal solution and ``Y = A₀⁻¹`` at every grid point,
    plus the row sums and column maxima of ``|Y|`` and ``‖A₀‖∞`` for the
    certificate.  It runs on first use (:meth:`solve`) and its work is
    counted in :attr:`stats`.  Whoever runs several configurations
    together — an executor call, a worker batch — passes them one
    basis; every basis of a campaign is the same sweep, so no result
    depends on which configurations shared one.

    The campaign's rank-1 faults are found once per basis, in its
    numbering (:meth:`updates`), and what they read of the sweep is
    gathered once (:meth:`entries`): every configuration that numbers
    its rows as the basis does reads copies of those entries.
    """

    def __init__(
        self,
        circuit: Circuit,
        grid: FrequencyGrid,
        stats: Optional[KernelStats] = None,
        system: Optional[MnaSystem] = None,
    ):
        self.circuit = circuit
        self.grid = grid
        self.stats = stats if stats is not None else KernelStats()
        self._system = system
        self._sweep = None
        self._error: Optional[SingularCircuitError] = None
        #: ``(faults, updates, entries by probe row)`` of the last universe
        self._faults = None

    @property
    def system(self) -> MnaSystem:
        """The basis circuit's stamp, made once."""
        if self._system is None:
            self._system = MnaSystem(self.circuit)
        return self._system

    def solve(self):
        """``(solutions, row_sum, col_max, a_norm)`` of the sweep.

        ``solutions`` is the ``(P, n, 1+n)`` block of ``[z, I]``.
        Raises the sweep's :class:`SingularCircuitError` (every call,
        solving once).
        """
        if self._error is not None:
            raise self._error
        if self._sweep is None:
            system = self.system
            rhs = np.hstack([system.z[:, np.newaxis], np.eye(system.size)])
            frequencies = self.grid.frequencies_hz
            try:
                solutions = solve_sweep(
                    system.sweep_request(rhs), frequencies, self.stats
                )
            except SingularCircuitError as exc:
                self._error = exc
                raise
            with np.errstate(invalid="ignore", over="ignore"):
                row_sum, col_max = _magnitudes(solutions[:, :, 1:])
            self._sweep = (
                solutions,
                row_sum,
                col_max,
                _pencil_norm(system, 2.0 * np.pi * frequencies),
            )
        return self._sweep

    def updates(self, faults: Sequence[Fault]) -> _Updates:
        """The rank-1 faults among ``faults`` in this basis's numbering.

        Found once per universe (``faults`` itself, not an equal copy).
        """
        if self._faults is None or self._faults[0] is not faults:
            self._faults = (
                faults, _rank1_updates(self.circuit, self.system, faults), {}
            )
        return self._faults[1]

    def entries(
        self, updates: _Updates, out: int, omega, index=None
    ) -> _Entries:
        """What ``updates`` read of the sweep, for probe row ``out``.

        ``index`` maps the updates' numbering to the basis's (``None``
        where they agree).  Every entry of ``Y`` they read is gathered
        in one pass, once for the updates of :meth:`updates`; the
        caller must not write to them.
        """
        own = index is None and self._faults and updates is self._faults[1]
        gathered = self._faults[2] if own else {}
        if out in gathered:
            return gathered[out]
        solutions, row_sum, col_max, _ = self.solve()

        def basis(rows: np.ndarray) -> np.ndarray:
            return rows if index is None else index[rows]

        rows, cols = updates.rows, updates.cols
        outs = np.full(rows.shape, out)
        r = np.concatenate([rows, rows, cols, cols, outs, outs])
        c = np.concatenate([rows, cols, rows, cols, rows, cols])
        entry = solutions[:, :, 1:][:, basis(r), basis(c)]
        entry[:, (r < 0) | (c < 0)] = 0.0
        entry = entry.reshape(-1, 6, rows.size)
        gathered[out] = _Entries(
            delta=(
                updates.dg[np.newaxis, :]
                + 1j * omega[:, np.newaxis] * updates.dc[np.newaxis, :]
            ),
            uw=entry[:, 0] - entry[:, 1] - entry[:, 2] + entry[:, 3],
            w_out=entry[:, 4] - entry[:, 5],
            sums=row_sum[:, basis(np.concatenate([[out], rows, cols]))],
            maxima=col_max[:, basis(np.concatenate([rows, cols]))],
        )
        return gathered[out]


@dataclass
class Variant:
    """A circuit as the simulator sweeps it: its title, default probe and
    MNA stamp, and the circuit itself, built on first use.

    ``rows`` is set for a row copy of a basis's stamp
    (:func:`configuration_variant`): the stamp numbers its rows as the
    basis's does and may differ from it only in ``rows`` (ascending), so
    the basis's rank-1 updates and entries apply to it.  A full stamp
    other than the basis's own has ``rows=None``; its change from the
    basis is found by comparing the two stamps.
    """

    title: str
    output: Optional[str]
    system: MnaSystem
    build: Callable[[], Circuit]
    rows: Optional[np.ndarray] = None

    @cached_property
    def circuit(self) -> Circuit:
        """The circuit (an exact per-fault sweep re-stamps it)."""
        return self.build()

    @classmethod
    def of(
        cls,
        circuit: Circuit,
        basis: Optional[Basis],
        stats: KernelStats,
    ) -> "Variant":
        """``circuit`` itself: the basis's own stamp when it is the
        basis's circuit, else a full stamp, which ``stats.full_stamps``
        counts when a basis was given."""
        if basis is not None and circuit is basis.circuit:
            return cls(
                circuit.title, circuit.output, basis.system, lambda: circuit
            )
        if basis is not None:
            stats.full_stamps += 1
        return cls(
            circuit.title, circuit.output, MnaSystem(circuit), lambda: circuit
        )


def configuration_variant(
    mcc: MultiConfigurationCircuit,
    config: Configuration,
    basis: Basis,
    stats: KernelStats,
) -> Variant:
    """``config``'s circuit as a campaign unit sweeps it.

    ``basis`` is the campaign's: its circuit is ``mcc``'s functional
    one, which is C0's variant.  A configuration whose followers all
    have a declared row
    (:attr:`~repro.dft.transform.MultiConfigurationCircuit.follower_rows`)
    and whose circuit numbers its nodes as C0's does is C0's stamp with
    those rows written in
    (:meth:`~repro.analysis.mna.MnaSystem.with_rows`), bit for bit its
    full stamp, and its circuit is emulated only if an exact sweep needs
    it.  Any other — under switch parasitics, or where a follower moves
    the first appearance of a node — is emulated and stamped in full
    (``stats.full_stamps``).
    """
    functional = basis.circuit
    if config.is_functional:
        return Variant.of(functional, basis, stats)
    rows = [mcc.follower_rows.get(p) for p in config.follower_positions]
    if None not in rows:
        followers = {row.follower.name: row.follower for row in rows}
        numbering = node_numbering(
            followers.get(element.name, element) for element in functional
        )
        if list(numbering) == list(basis.system.node_index):
            system = basis.system.with_rows(
                mcc.configuration_title(config),
                {row.branch: row.entries for row in rows},
            )
            return Variant(
                system.title,
                functional.output,
                system,
                functools.partial(mcc.emulate, config),
                np.sort([system.index_of(row.branch) for row in rows]),
            )
    return Variant.of(mcc.emulate(config), basis, stats)


def _pencil_change(
    system: MnaSystem, basis: MnaSystem, rows: Optional[np.ndarray] = None
):
    """The rows in which ``system``'s pencil differs from ``basis``'s.

    Rows and columns are matched by node name and branch key.  Returns
    ``(index, rows, dg, dc)``: ``index`` maps each row of ``system`` to
    the basis row of the same node or branch (``None`` where both number
    them alike), ``rows`` lists the rows of ``system`` whose G or C
    differ, and ``dg``, ``dc`` are those rows of ``G − G₀`` and
    ``C − C₀`` in the basis's column order.  ``None`` when the two
    systems do not have the same nodes and branches.  Given ``rows``, a
    system that numbers its rows as the basis does and may differ from
    it only there (a :class:`Variant`'s), only those rows are compared.
    """
    g0, c0 = basis.G, basis.C
    index = None
    if rows is None:
        if (
            len(system.node_index) != len(basis.node_index)
            or len(system.branch_index) != len(basis.branch_index)
        ):
            return None
        if list(system.node_index) != list(basis.node_index) or list(
            system.branch_index
        ) != list(basis.branch_index):
            try:
                index = np.array(
                    [basis.node_index[node] for node in system.node_index]
                    + [basis.branch_index[key] for key in system.branch_index]
                )
            except KeyError:
                return None
            g0, c0 = g0[np.ix_(index, index)], c0[np.ix_(index, index)]
        rows = np.flatnonzero(
            np.any(system.G != g0, axis=1) | np.any(system.C != c0, axis=1)
        )
    else:
        rows = rows[
            np.any(system.G[rows] != g0[rows], axis=1)
            | np.any(system.C[rows] != c0[rows], axis=1)
        ]
    dg = system.G[rows] - g0[rows]
    dc = system.C[rows] - c0[rows]
    if index is not None:
        dg[:, index], dc[:, index] = dg.copy(), dc.copy()
    return index, rows, dg, dc


class _Inverse:
    """One configuration's ``A⁻¹``, as the entries its updates read.

    ``basis`` gives ``Y`` (with the row sums and column maxima of
    ``|Y|``).  A configuration whose pencil differs from the basis's in
    rows S also carries ``index`` (its rows in the basis's numbering),
    ``z = A⁻¹E_S`` (its own numbering) and ``w = D_SᵀY`` (the basis's),
    both stored one column or row of S at a time as ``(|S|, P, n)``
    arrays, so that ``A⁻¹ = Y − Z·W`` and, entrywise,
    ``|A⁻¹| ≤ |Y| + |Z|·|W|``.  Row and column arguments are in the
    configuration's numbering, −1 for ground; ``|re| + |im|`` bounds
    each magnitude.
    """

    def __init__(self, basis: Basis, index=None, z=None, w=None):
        self.basis = basis
        self.index = index
        self.z = self.w = self.z_abs = self.z_max = ()
        self.w_abs = self.w_row_sum = ()
        if z is not None:
            self.z, self.w = z, w
            self.z_abs = np.abs(z.real) + np.abs(z.imag)
            self.z_max = self.z_abs.max(axis=2)
            self.w_abs = np.abs(w.real) + np.abs(w.imag)
            self.w_row_sum = self.w_abs.sum(axis=2)

    def entries(self, updates: _Updates, out: int, omega) -> _Entries:
        """The :class:`_Entries` of ``updates``: the basis's, then the
        ``Z·W`` correction of each row of S, applied to copies."""
        base = self.basis.entries(updates, out, omega, self.index)
        uw, w_out = base.uw.copy(), base.w_out.copy()
        sums, maxima = base.sums.copy(), base.maxima.copy()
        rows = basis_rows = updates.rows
        cols = basis_cols = updates.cols
        if self.index is not None:
            basis_rows, basis_cols = self.index[rows], self.index[cols]
        sum_rows = np.concatenate([[out], rows, cols])
        max_cols = np.concatenate([basis_rows, basis_cols])
        with np.errstate(invalid="ignore", over="ignore"):
            for z, w in zip(self.z, self.w):
                zu = _ground(z[:, rows], rows) - _ground(z[:, cols], cols)
                wu = _ground(w[:, basis_rows], rows) - _ground(
                    w[:, basis_cols], cols
                )
                uw -= zu * wu
                w_out -= z[:, out, np.newaxis] * wu
            for z_abs, w_sum in zip(self.z_abs, self.w_row_sum):
                sums += z_abs[:, sum_rows] * w_sum[:, np.newaxis]
            for z_max, w_abs in zip(self.z_max, self.w_abs):
                maxima += z_max[:, np.newaxis] * w_abs[:, max_cols]
        return _Entries(base.delta, uw, w_out, sums, maxima)


def _ground(picked: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``picked`` with the columns of ground (index −1) zeroed."""
    picked[:, index < 0] = 0.0
    return picked


def _configuration_inverse(
    variant: Variant,
    basis: Basis,
    stats: KernelStats,
    omega: np.ndarray,
):
    """``(x, inverse, a_norm, solves)`` of one configuration.

    ``x`` is the configuration's exact ``(P, n)`` nominal solution,
    ``inverse`` an :class:`_Inverse`, ``a_norm`` the bound of ``‖A‖∞``
    the certificate charges and ``solves`` the LU solves whose backward
    error it adds up.  The basis's system itself reads the basis sweep.
    Any other system sweeps ``[z, E_S]`` over the rows S where its
    pencil differs (the variant's declared rows, or the rows a
    comparison of the two stamps finds), and its ``A⁻¹`` entries come
    from the identity ``A⁻¹ = Y − Z·(D_SᵀY)``; the bound then also
    charges the basis LU and takes ``max(‖A₀‖∞, ‖A‖∞)``.  A system with
    other nodes or branches than the basis's, or any system when the
    basis is singular, becomes its own basis.
    """
    system = variant.system
    change = None
    if system is not basis.system:
        change = _pencil_change(system, basis.system, variant.rows)
        try:
            shared = change is not None and basis.solve()
        except SingularCircuitError:
            shared = None
        if not shared:
            basis = Basis(variant.circuit, basis.grid, stats, system)
            change = None
        elif change[0] is None and not change[1].size and np.array_equal(
            system.z, basis.system.z
        ):
            change = None  # the basis's own pencil and excitation
    solutions, _, _, a_norm = basis.solve()
    if change is None:
        return solutions[:, :, 0], _Inverse(basis), a_norm, SOLVES_COMPARED
    index, rows, dg, dc = change
    y = solutions[:, :, 1:]
    rhs = np.hstack([system.z[:, np.newaxis], np.eye(system.size)[:, rows]])
    own = solve_sweep(
        system.sweep_request(rhs), basis.grid.frequencies_hz, stats
    )
    # W = D_SᵀY over the columns D_S touches, as (|S|, P, n)
    used = np.flatnonzero(np.any(dg, axis=0) | np.any(dc, axis=0))
    y_used = y.transpose(1, 0, 2)[used].reshape(used.size, -1)
    with np.errstate(invalid="ignore", over="ignore"):
        w = (dg[:, used] @ y_used).reshape(rows.size, *y.shape[::2])
        if np.any(dc):
            w += (dc[:, used] @ y_used).reshape(w.shape) * (
                1j * omega[:, np.newaxis]
            )
        return (
            own[:, :, 0],
            _Inverse(basis, index, np.moveaxis(own[:, :, 1:], 2, 0), w),
            np.maximum(a_norm, _pencil_norm(system, omega)),
            SOLVES_COMPARED + 1,
        )


def _certified_rank1(
    x: np.ndarray,
    out: int,
    updates: _Updates,
    entries: _Entries,
    a_norm: np.ndarray,
    solves: int,
    setup: SimulationSetup,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sherman–Morrison responses of rank-1 faults, with their certificate.

    ``x`` is the ``(P, n)`` nominal solution, ``entries`` the
    configuration's :meth:`_Inverse.entries` of ``updates``, and
    ``a_norm`` and ``solves`` come from :func:`_configuration_inverse`.
    For fault ``f`` at grid point ``k``

    ``y' = x_out − δ·(uᵀx)/(1 + δ·uᵀA⁻¹u) · (A⁻¹u)_out``

    Returns ``(values, near, resweep)``, one column per update:
    ``values`` is the ``(P, U)`` block of faulty outputs, ``near`` marks
    the grid points whose deviation lies within its error bound of ε, to
    be re-solved exactly, and ``resweep`` the ``U`` pairs to re-sweep
    exactly instead (a cancellation factor beyond
    :data:`CANCELLATION_LIMIT`, a peak-deviation error bound beyond
    :data:`PEAK_LIMIT` or a non-finite value).  ``entries``' bounds are
    overwritten.  The bound is derived in ``docs/performance.md``.
    """
    n = x.shape[1]
    rows, cols = updates.rows, updates.cols
    delta, uw, w_out, sums, maxima = entries

    x_out = x[:, out]
    ux = _ground(x[:, rows], rows) - _ground(x[:, cols], cols)
    du = delta * uw
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        denominator = 1.0 + du
        coef = delta * ux / denominator
        values = x_out[:, np.newaxis] - coef * w_out
        kappa = (1.0 + np.abs(du)) / np.abs(denominator)

        # first-order forward-error bound of the faulty output, shared by
        # this update and the exact solve of A' = A + δuuᵀ it replaces
        f = rows.size
        x_norm = np.abs(x).max(axis=1)[:, np.newaxis] + np.abs(coef) * (
            _ground(maxima[:, :f], rows) + _ground(maxima[:, f:], cols)
        )
        row_norm = sums[:, :1] + np.abs(delta * w_out / denominator) * (
            _ground(sums[:, 1:1 + f], rows) + _ground(sums[:, 1 + f:], cols)
        )
        a_bound = a_norm[:, np.newaxis] + 2.0 * np.abs(delta)
        bound = solves * n * EPS * row_norm * a_bound * x_norm + (
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
    return values, near, resweep


def simulate_configuration(
    circuit: Union[Circuit, Variant],
    output: Optional[str],
    faults: Sequence[Fault],
    labels: Sequence[str],
    setup: SimulationSetup,
    stats: Optional[KernelStats] = None,
    basis: Optional[Basis] = None,
) -> Tuple[FrequencyResponse, Detections, int]:
    """One configuration's share of a campaign.

    Returns ``(nominal_response, detections, n_solves)``: the
    :class:`~repro.core.detectability.Detections` of ``faults``, one row
    per label in order, and ``n_solves``, the logical sweep count
    ``1 + len(faults)``.  This is one campaign unit's work
    (:func:`simulate_faults` runs one per configuration, on its
    :func:`configuration_variant`); on a bare circuit with
    ``basis=None`` it is that circuit's row alone.  A plain circuit is
    stamped in full (:meth:`Variant.of`).

    ``basis`` is the campaign's :class:`Basis` (its functional
    circuit), shared with the other configurations its caller runs;
    ``None`` makes the circuit its own basis.  Every rank-1 fault
    (:func:`rank1_update`) follows by Sherman–Morrison from the entries
    of ``A⁻¹`` that :func:`_configuration_inverse` gives, certified by
    :func:`_certified_rank1`; a variant that numbers its rows as the
    basis does reads the basis's updates and entries, made once.  A
    pair the certificate rejects is re-swept exactly, and a grid point
    within its error bound of ε is re-solved exactly; both count as
    ``stats.sm_fallbacks``.  Other faults get the exact per-fault sweep.
    Definitions 1 and 2 are then evaluated once over the ``(F, P)``
    block of faulty responses
    (:func:`~repro.core.detectability.evaluate_block`).  Faults are
    finished in order, so the first error raised is the one a sweep and
    evaluation per fault would raise.  The basis sweep's work is
    counted in ``basis.stats``, everything else in ``stats``.
    """
    stats = stats if stats is not None else KernelStats()
    variant = (
        circuit if isinstance(circuit, Variant)
        else Variant.of(circuit, basis, stats)
    )
    probe = output or variant.output
    if probe is None:
        raise AnalysisError(
            f"{variant.title}: no output node designated for AC analysis"
        )
    grid = setup.grid
    frequencies = grid.frequencies_hz
    system = variant.system
    if basis is None:
        basis = Basis(variant.circuit, grid, stats, system)
    out = system.index_of(probe)

    block = np.empty((len(faults), frequencies.size), dtype=complex)
    columns: Dict[int, int] = {}
    if out < 0:
        nominal_values = np.zeros(frequencies.shape, dtype=complex)
    else:
        if variant.rows is not None or system is basis.system:
            updates = basis.updates(faults)
        else:
            updates = _rank1_updates(variant.circuit, system, faults)
        columns = {
            index: column for column, index in enumerate(updates.columns)
        }
        omega = 2.0 * np.pi * frequencies
        if columns:
            x, inverse, a_norm, solves = _configuration_inverse(
                variant, basis, stats, omega
            )
        else:
            x = solve_sweep(system.sweep_request(), frequencies, stats)[
                :, :, 0
            ]
        # a copy, not a view: the response must not keep the solution
        # block alive
        nominal_values = x[:, out].copy()
        if not np.all(np.isfinite(nominal_values)):
            raise SingularCircuitError(
                f"{variant.title}: non-finite response in sweep"
            )
        if columns:
            values, near, resweep = _certified_rank1(
                x, out, updates, inverse.entries(updates, out, omega),
                a_norm, solves, setup,
            )
            block[list(columns)] = values.T
            refine = near.any(axis=0)
    nominal_response = FrequencyResponse(
        grid=grid, values=nominal_values, label=f"{variant.title}:V({probe})"
    )

    for index, fault in enumerate(faults):
        column = columns.get(index)
        exact = column is None or resweep[column]
        if not exact and refine[column]:
            points = np.flatnonzero(near[:, column])
            stats.sm_fallbacks += points.size
            try:
                block[index, points] = _exact_values(
                    variant.circuit, fault, probe, frequencies[points], stats
                )
            except SingularCircuitError:
                # the whole sweep raises the error a per-fault sweep
                # raises, naming the right frequency chunk
                exact = True
        if exact:
            if column is not None:
                stats.sm_fallbacks += frequencies.size
            block[index] = _exact_values(
                variant.circuit, fault, probe, frequencies, stats
            )
        if (
            index == 0
            and setup.criterion == BAND
            and np.max(np.abs(nominal_values)) <= 0.0
        ):
            # a zero nominal under the band criterion raised at the
            # first fault's evaluation, before the second fault's sweep
            raise AnalysisError(ZERO_NOMINAL_BAND)
    detections = evaluate_block(
        nominal_response, block, setup.epsilon, setup.criterion
    )
    return nominal_response, detections, 1 + len(faults)


def simulate_faults(
    mcc: MultiConfigurationCircuit,
    faults: Sequence[Fault],
    setup: SimulationSetup,
    configs: Optional[Sequence[Configuration]] = None,
    executor=None,
    cache=None,
    telemetry=None,
) -> DetectabilityDataset:
    """Run the full fault × configuration campaign.

    The campaign engine (:mod:`repro.campaign`) plans one unit per
    configuration and runs them serially in-process unless an
    ``executor`` is given; the dataset does not depend on the executor.

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
    executor, cache, telemetry:
        Run the units on a :class:`~repro.campaign.executor.Executor`,
        answer and store them in a
        :class:`~repro.campaign.cache.ResultCache`, observe them with a
        :class:`~repro.campaign.telemetry.CampaignTelemetry`.

    Raises :class:`~repro.errors.CampaignError` when there is no
    configuration or no fault, when fault labels collide, and when a
    unit fails (a singular circuit, an unassemblable fault, a zero
    nominal under the band criterion, ...).  A failed unit does not stop
    the others: once every unit has run, the error names how many failed
    and is chained to the first failure's own error (``__cause__``).
    """
    from ..campaign import execute_plan, plan_campaign

    plan = plan_campaign(mcc, faults, setup, configs=configs)
    return execute_plan(
        plan, executor=executor, cache=cache, telemetry=telemetry
    )
