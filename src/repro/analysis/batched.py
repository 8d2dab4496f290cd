"""Batched MNA assembly and solves for component-scaled circuit families.

Monte Carlo and corner tolerance analysis, and trajectory dictionaries,
all evaluate the *same* circuit topology at many component-value points:
every sample (or vertex, or trajectory point) scales a handful of
passives and sweeps the result.  Building each sample through
:class:`~repro.analysis.mna.MnaSystem` costs one full Python stamp pass
per sample.

This module vectorizes the assembly of the whole family:

* a :class:`StampProgram` records the nominal stamp stream **once**,
  classifies how every matrix entry of the varied elements depends on
  the component value (constant, ``±value`` or ``±1/value``), and
  replays the per-cell accumulation in the original element order over a
  sample axis — producing ``(S, n, n)`` stacks of ``G`` and ``C``;
* :func:`scaled_values` turns each sample's pencil into one
  :class:`~repro.analysis.kernel.SweepRequest` and solves it with
  :func:`~repro.analysis.kernel.solve_sweep`.

Bit-compatibility is inherited, not approximated.  The replay preserves
the exact floating-point accumulation order of the scalar assembly
(contributions to one cell are added in stamp order; IEEE elementwise
operations match their scalar counterparts), and the per-sample
component values are computed with the same ``value * factor`` products
that :meth:`~repro.circuit.netlist.Circuit.with_scaled` applies.  A
batched tolerance run therefore reproduces the per-sample rebuild loop
**exactly**, bit for bit — the zero-tolerance ``tolerance`` oracle of
:mod:`repro.verify` holds it to that.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..circuit.components import Stamper, TwoTerminal
from ..circuit.netlist import Circuit
from ..errors import AnalysisError, SingularCircuitError
from .kernel import KernelStats, SweepRequest, solve_sweep
from .mna import MnaSystem
from .sweep import FrequencyGrid

#: matrix entries (per stack) assembled in one batch of samples — bounds
#: the ``S·n²`` assembly workspace for huge corner enumerations
ASSEMBLY_BUDGET = 4_000_000

#: how a stamped matrix entry depends on the element value
_CONST, _LINEAR, _INVERSE = 0, 1, 2


class _ProbeStamper(Stamper):
    """Records one element's stamp as an ordered entry list."""

    def __init__(self, system: MnaSystem):
        self._system = system
        self.adds: List[Tuple[int, int, float, float]] = []
        self.rhs_entries: List[Tuple[int, complex]] = []

    def add(self, row, col, g: float = 0.0, c: float = 0.0) -> None:
        i = self._system.index_of(row)
        j = self._system.index_of(col)
        if i < 0 or j < 0:
            return
        self.adds.append((i, j, float(g), float(c)))

    def rhs(self, row, value: complex) -> None:
        i = self._system.index_of(row)
        if i < 0:
            return
        self.rhs_entries.append((i, complex(value)))


def _classify(probe1: float, probe2: float, v0: float):
    """``(kind, sign-or-constant)`` of one entry, probed at v0 and 2·v0.

    Both probe values are exact (doubling a float is exact), so the
    classification is a bitwise identity check, never a tolerance test.
    Returns ``None`` for a dependence the replay cannot reproduce.
    """
    if probe1 == probe2:
        return (_CONST, probe1)
    if probe1 == v0 and probe2 == 2.0 * v0:
        return (_LINEAR, 1.0)
    if probe1 == -v0 and probe2 == -(2.0 * v0):
        return (_LINEAR, -1.0)
    if probe1 == 1.0 / v0 and probe2 == 1.0 / (2.0 * v0):
        return (_INVERSE, 1.0)
    if probe1 == -(1.0 / v0) and probe2 == -(1.0 / (2.0 * v0)):
        return (_INVERSE, -1.0)
    return None


class StampProgram:
    """Replayable vectorized assembly of a component-scaled family.

    Parameters
    ----------
    system:
        The nominal circuit's assembled :class:`MnaSystem` (provides the
        index map, the base matrices and the shared excitation vector).
    components:
        Names of the varied elements, in the order the factor columns
        refer to them.  Each must be a two-terminal value element whose
        stamp is constant, linear or inverse in the value — which covers
        every :meth:`~repro.circuit.netlist.Circuit.passives` element.
        A name listed twice is scaled by both of its columns in turn,
        as repeated :meth:`~repro.circuit.netlist.Circuit.with_scaled`
        calls would scale it.
    """

    def __init__(self, system: MnaSystem, components: Sequence[str]):
        circuit = system.circuit
        self.size = system.size
        self.n_factors = len(components)
        varied = {}
        values = []
        #: factor columns applied to each varied element, in order
        self._columns: List[List[int]] = []
        for k, name in enumerate(components):
            element = circuit[name]
            if not isinstance(element, TwoTerminal):
                raise AnalysisError(
                    f"{circuit.title}: element {name!r} carries no scalar "
                    "value to scale"
                )
            if name not in varied:
                varied[name] = len(values)
                values.append(float(element.value))
                self._columns.append([])
            self._columns[varied[name]].append(k)
        self.nominal_values = np.asarray(values, dtype=float)

        # Record the full stamp stream in element-insertion order; probe
        # each varied element at value and 2·value to classify entries.
        ops_g: List[Tuple[int, int, int, float, int]] = []
        ops_c: List[Tuple[int, int, int, float, int]] = []
        for element in circuit:
            probe1 = _ProbeStamper(system)
            element.stamp(probe1)
            if element.name not in varied:
                for i, j, g, c in probe1.adds:
                    ops_g.append((i, j, _CONST, g, -1))
                    ops_c.append((i, j, _CONST, c, -1))
                continue
            k = varied[element.name]
            v0 = float(element.value)
            probe2 = _ProbeStamper(system)
            element.with_value(2.0 * v0).stamp(probe2)
            supported = (
                probe1.rhs_entries == probe2.rhs_entries
                and len(probe1.adds) == len(probe2.adds)
            )
            if supported:
                for (i, j, g1, c1), (i2, j2, g2, c2) in zip(
                    probe1.adds, probe2.adds
                ):
                    g_kind = _classify(g1, g2, v0)
                    c_kind = _classify(c1, c2, v0)
                    if (i, j) != (i2, j2) or g_kind is None or c_kind is None:
                        supported = False
                        break
                    ops_g.append((i, j) + g_kind + (k,))
                    ops_c.append((i, j) + c_kind + (k,))
            if not supported:
                raise AnalysisError(
                    f"{circuit.title}: element {element.name!r} "
                    f"({type(element).__name__}) has a value dependence "
                    "the batched tolerance assembly cannot replay"
                )

        # Cells touched by any value-dependent contribution are replayed
        # per sample in full stamp order (constants included, preserving
        # the accumulation order); all other cells keep their nominal
        # value, which is sample-independent by construction.
        hot_g = {(i, j) for i, j, kind, _, _ in ops_g if kind != _CONST}
        hot_c = {(i, j) for i, j, kind, _, _ in ops_c if kind != _CONST}
        self._replay_g = [op for op in ops_g if (op[0], op[1]) in hot_g]
        self._replay_c = [op for op in ops_c if (op[0], op[1]) in hot_c]
        self._base_g = system.G.copy()
        self._base_c = system.C.copy()
        for i, j in hot_g:
            self._base_g[i, j] = 0.0
        for i, j in hot_c:
            self._base_c[i, j] = 0.0

    def assemble(
        self, factors: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(S, n, n)`` stacks of ``G`` and ``C`` for the factor rows.

        ``factors[s, k]`` scales component ``k`` of sample ``s``; each
        resulting matrix is bit-identical to assembling the scaled
        circuit through :class:`MnaSystem`.
        """
        factors = np.asarray(factors, dtype=float)
        if factors.ndim != 2 or factors.shape[1] != self.n_factors:
            raise AnalysisError(
                "factor matrix must be (n_samples, n_components), got "
                f"shape {factors.shape}"
            )
        n_samples = factors.shape[0]
        # The exact products TwoTerminal.scaled computes, vectorized.
        values = np.empty((n_samples, len(self._columns)))
        for k, columns in enumerate(self._columns):
            column = self.nominal_values[k]
            for factor_column in columns:
                column = column * factors[:, factor_column]
            values[:, k] = column
        inverses = 1.0 / values
        stacks = []
        for base, replay in (
            (self._base_g, self._replay_g),
            (self._base_c, self._replay_c),
        ):
            stack = np.repeat(base[np.newaxis, :, :], n_samples, axis=0)
            for i, j, kind, payload, k in replay:
                if kind == _CONST:
                    stack[:, i, j] += payload
                    continue
                column = values[:, k] if kind == _LINEAR else inverses[:, k]
                stack[:, i, j] += column if payload > 0 else -column
            stacks.append(stack)
        return stacks[0], stacks[1]


def scaled_values(
    circuit: Circuit,
    grid: FrequencyGrid,
    components: Sequence[str],
    factors: np.ndarray,
    output: Optional[str] = None,
    stats: Optional[KernelStats] = None,
) -> np.ndarray:
    """``(S, F)`` response matrix of every component-scaled variant.

    Row ``s`` holds ``V(output)`` of ``circuit`` with ``components``
    scaled by ``factors[s]``, bit-identical to the values of
    ``ac_analysis(circuit.with_scaled(...), grid)`` for that sample.  A
    singular sample raises that sweep's exact
    :class:`~repro.errors.SingularCircuitError` for the **first**
    failing row (in row order).
    """
    probe = output or circuit.output
    if probe is None:
        raise AnalysisError(
            f"{circuit.title}: no output node designated for AC analysis"
        )
    factors = np.asarray(factors, dtype=float)
    system = MnaSystem(circuit)
    out_index = system.index_of(probe)
    frequencies = grid.frequencies_hz
    n_samples = factors.shape[0] if factors.ndim == 2 else 0
    values = np.zeros((n_samples, frequencies.size), dtype=complex)
    if out_index < 0:
        return values

    program = StampProgram(system, components)
    batch = max(1, int(ASSEMBLY_BUDGET // max(system.size**2, 1)))
    for start in range(0, n_samples, batch):
        G_all, C_all = program.assemble(factors[start:start + batch])
        for s in range(G_all.shape[0]):
            request = SweepRequest(
                G=G_all[s], C=C_all[s], rhs=system.z, title=circuit.title
            )
            sample = solve_sweep(request, frequencies, stats)[
                :, out_index, 0
            ]
            if not np.all(np.isfinite(sample)):
                raise SingularCircuitError(
                    f"{circuit.title}: non-finite response in sweep"
                )
            values[start + s] = sample
    return values


def relative_deviation_rows(
    reference: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Definition 1 deviations ``|ΔT/T|`` of response rows from
    reference rows.

    The vectorized twin of
    :meth:`~repro.analysis.ac.FrequencyResponse.relative_deviation`.
    ``reference`` and ``values`` hold complex responses along their
    last (frequency) axis and broadcast against each other: one nominal
    against an ``(S, P)`` block of samples, or an ``(R, P)`` block of
    reference rows against one observation.  The machine-epsilon floor
    near zeros is taken per reference row, so every row is
    bit-identical to the per-response call.
    """
    magnitude = np.abs(reference)
    delta = np.abs(np.abs(values) - magnitude)
    tiny = np.finfo(float).eps * np.max(magnitude, axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(
            magnitude > tiny,
            delta / magnitude,
            np.where(delta > tiny, np.inf, 0.0),
        )


#: what a band deviation from an all-zero nominal response raises
ZERO_NOMINAL_BAND = (
    "nominal response is identically zero; band deviation undefined"
)


def band_deviation_rows(
    reference: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Band deviations ``|ΔT|/max|T|`` of response rows from reference
    rows.

    Vectorized twin of
    :meth:`~repro.analysis.ac.FrequencyResponse.band_deviation`, with
    the shapes of :func:`relative_deviation_rows`; the peak is taken
    per reference row, and every row is bit-identical to the
    per-response call.
    """
    magnitude = np.abs(reference)
    peak = np.max(magnitude, axis=-1, keepdims=True)
    if np.any(peak <= 0.0):
        raise AnalysisError(ZERO_NOMINAL_BAND)
    return np.abs(np.abs(values) - magnitude) / peak
