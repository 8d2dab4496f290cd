"""Modified Nodal Analysis (MNA) assembly and solution.

This module is the replacement for the paper's HSPICE runs: it assembles
the complex linear system of a circuit and solves it at arbitrary
frequencies.  The formulation is

.. math:: (G + s\\,C)\\,x = z

where ``x`` stacks the non-ground node voltages followed by the branch
currents of voltage-defining elements (sources, inductors, opamps, ...).
``G`` and ``C`` are assembled **once** per circuit; every frequency point
then only costs one dense solve, which makes the fault × configuration
sweeps of the DFT study cheap.
"""

from __future__ import annotations

import copy
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..circuit.components import Branch, Element, GROUND, Stamper
from ..circuit.netlist import Circuit
from ..errors import AnalysisError, SingularCircuitError
from .kernel import KernelStats, SweepRequest, solve_reusing_lu, solve_sweep

RowRef = Union[str, Branch]


class _MatrixStamper(Stamper):
    """Stamper implementation writing into dense numpy matrices."""

    def __init__(self, system: "MnaSystem"):
        self._system = system

    def _index(self, ref: RowRef) -> int:
        return self._system.index_of(ref)

    def add(self, row: RowRef, col: RowRef, g: float = 0.0, c: float = 0.0) -> None:
        i = self._index(row)
        j = self._index(col)
        if i < 0 or j < 0:
            return
        self._system.G[i, j] += g
        self._system.C[i, j] += c

    def rhs(self, row: RowRef, value: complex) -> None:
        i = self._index(row)
        if i < 0:
            return
        self._system.z[i] += value


class Solution:
    """Solution of one MNA solve: node voltages and branch currents."""

    def __init__(self, system: "MnaSystem", x: np.ndarray, s: complex):
        self._system = system
        self._x = x
        self.s = s

    def voltage(self, node: str) -> complex:
        """Voltage of ``node`` (0 for ground)."""
        index = self._system.index_of(node)
        if index < 0:
            return 0.0 + 0.0j
        return complex(self._x[index])

    def voltage_between(self, n1: str, n2: str) -> complex:
        return self.voltage(n1) - self.voltage(n2)

    def branch_current(self, element_name: str, k: int = 0) -> complex:
        """Branch current of a voltage-defining element."""
        index = self._system.index_of(Branch(element_name, k))
        return complex(self._x[index])

    def as_dict(self) -> Dict[str, complex]:
        """All node voltages keyed by node name (ground excluded)."""
        return {
            node: complex(self._x[idx])
            for node, idx in self._system.node_index.items()
        }


def node_numbering(elements: Iterable[Element]) -> Dict[str, int]:
    """Row of every non-ground node, in order of first appearance."""
    index: Dict[str, int] = {}
    for element in elements:
        for node in element.nodes:
            if node != GROUND and node not in index:
                index[node] = len(index)
    return index


class MnaSystem:
    """Assembled MNA matrices for one circuit.

    Parameters
    ----------
    circuit:
        The circuit to assemble.  Elements are stamped in insertion order.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.title = circuit.title
        self.node_index = node_numbering(circuit)
        self.branch_index: Dict[Tuple[str, int], int] = {}
        offset = len(self.node_index)
        for element in circuit:
            for k in range(element.n_branches):
                self.branch_index[(element.name, k)] = offset
                offset += 1

        self.size = offset
        if self.size == 0:
            raise AnalysisError(
                f"{circuit.title}: nothing to solve (empty circuit)"
            )
        self.G = np.zeros((self.size, self.size), dtype=float)
        self.C = np.zeros((self.size, self.size), dtype=float)
        self.z = np.zeros(self.size, dtype=complex)

        stamper = _MatrixStamper(self)
        for element in circuit:
            element.stamp(stamper)

        self._lu_cache: Dict[complex, Tuple] = {}

    def with_rows(
        self,
        title: str,
        rows: Mapping[Branch, Sequence[Tuple[object, float, float]]],
    ) -> "MnaSystem":
        """This stamp with whole branch rows re-stamped: another circuit's.

        ``rows`` maps a branch to the ``(column, g, c)`` stamps its row
        receives, in order.  Only the element that owns a branch stamps
        its row, and a stamp accumulates from zero, so for a circuit
        that numbers its nodes and branches as this one does and differs
        from it only in elements that own those branches (and stamp
        alike outside their rows), the copy is bit for bit that
        circuit's full stamp.  It shares this system's numbering and
        excitation; it names no ``circuit`` (``None``), only ``title``.
        """
        other = copy.copy(self)
        other.circuit = None
        other.title = title
        other.G = self.G.copy()
        other.C = self.C.copy()
        other._lu_cache = {}
        stamper = _MatrixStamper(other)
        for branch, entries in rows.items():
            row = other.index_of(branch)
            other.G[row] = 0.0
            other.C[row] = 0.0
            for column, g, c in entries:
                stamper.add(branch, column, g, c)
        return other

    # ------------------------------------------------------------------
    def index_of(self, ref: RowRef) -> int:
        """Matrix index of a node name or :class:`Branch`; −1 for ground."""
        if isinstance(ref, Branch):
            try:
                return self.branch_index[(ref.element, ref.k)]
            except KeyError:
                raise AnalysisError(
                    f"unknown branch {ref.element}[{ref.k}]"
                ) from None
        if ref == GROUND:
            return -1
        try:
            return self.node_index[ref]
        except KeyError:
            raise AnalysisError(f"unknown node {ref!r}") from None

    @property
    def n_nodes(self) -> int:
        return len(self.node_index)

    @property
    def n_branches(self) -> int:
        return len(self.branch_index)

    # ------------------------------------------------------------------
    def matrix_at(self, s: complex) -> np.ndarray:
        """Dense system matrix ``G + s C``."""
        return self.G + s * self.C

    def solve_s(self, s: complex) -> Solution:
        """Solve the system at complex frequency ``s``.

        Repeated solves at the same ``s`` (transfer-point probes, DC
        gains, transient stepping) reuse one LU factorization through
        the instance's bounded factor cache.
        """
        matrix = self.matrix_at(s)
        try:
            x = solve_reusing_lu(matrix, self.z, self._lu_cache, s)
        except np.linalg.LinAlgError:
            raise SingularCircuitError(
                f"{self.title}: MNA matrix singular at s={s!r} — "
                "check for floating nodes or opamps without feedback"
            ) from None
        if not np.all(np.isfinite(x)):
            raise SingularCircuitError(
                f"{self.title}: non-finite solution at s={s!r}"
            )
        return Solution(self, x, s)

    def solve_at(self, frequency_hz: float) -> Solution:
        """Solve at a real frequency in hertz (``s = j·2πf``)."""
        return self.solve_s(2j * np.pi * frequency_hz)

    def solve_many(self, frequencies_hz: np.ndarray) -> List[Solution]:
        """Solve at every frequency of a sweep, batched.

        One stacked LAPACK dispatch covers the whole sweep; a singular
        grid falls back to per-point solves so the error names the
        exact offending frequency, as the historical loop did.
        """
        frequencies = np.asarray(frequencies_hz, dtype=float)
        try:
            solutions = solve_sweep(self.sweep_request(), frequencies)
        except SingularCircuitError:
            # Per-point fallback to surface the first singular s value
            # with solve_s's message.
            return [self.solve_at(f) for f in frequencies]
        return [
            Solution(self, solutions[k, :, 0], 2j * np.pi * f)
            for k, f in enumerate(frequencies)
        ]

    def sweep_request(self, rhs: Optional[np.ndarray] = None) -> SweepRequest:
        """This system as a kernel :class:`SweepRequest`.

        ``rhs`` defaults to the assembled excitation vector ``z``; the
        fault simulator passes a wider RHS (the excitation plus the
        identity, for ``A⁻¹``).
        """
        return SweepRequest(
            G=self.G,
            C=self.C,
            rhs=self.z if rhs is None else rhs,
            title=self.title,
        )

    def sweep_voltage(
        self,
        node: str,
        frequencies_hz: np.ndarray,
        stats: Optional[KernelStats] = None,
    ) -> np.ndarray:
        """Vector of ``V(node)`` over a frequency sweep.

        This is the hot path of fault simulation — the paper's named
        bottleneck is exactly this sweep, repeated per (configuration,
        fault) pair.  The sweep is delegated to the stacked kernel
        (:func:`repro.analysis.kernel.solve_sweep`): all frequency
        points are solved in batched ``numpy.linalg.solve`` calls on
        the stacked matrices ``G + jω_k C``, chunked to bound the
        ``F·n²`` workspace.  ``stats`` (optional) accumulates the solve
        and factorization counts.
        """
        frequencies = np.asarray(frequencies_hz, dtype=float)
        out_index = self.index_of(node)
        if out_index < 0:
            return np.zeros(frequencies.shape, dtype=complex)
        values = solve_sweep(self.sweep_request(), frequencies, stats)[
            :, out_index, 0
        ]
        if not np.all(np.isfinite(values)):
            raise SingularCircuitError(
                f"{self.title}: non-finite response in sweep"
            )
        return values
