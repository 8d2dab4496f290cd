"""Worst-case (vertex/corner) tolerance analysis.

Monte Carlo (:mod:`repro.analysis.montecarlo`) samples the tolerance box
statistically; corner analysis evaluates its **vertices** — every
component pinned at ``±tolerance`` — which bounds the worst case exactly
for monotone responses and is the classic EDA complement for small
component counts (``2^n`` corners; capped).

The result feeds the same ε discussion as the Monte Carlo module, and
— crucially — in the same units: corner deviations are the paper's
Definition 1 point-wise ``|ΔT/T|``, exactly what
:func:`~repro.analysis.montecarlo.monte_carlo_tolerance` records, so
:meth:`CornerAnalysis.epsilon_floor` and
:meth:`~repro.analysis.montecarlo.ToleranceAnalysis.suggested_epsilon`
are directly comparable.  The tolerance-band normalisation
(``|ΔT| / max|T|``, the paper's Figure 2 picture) remains available
under the explicit ``band_*`` names.

Like the Monte Carlo module, the ``2^n`` corner circuits are assembled
in one pass (:mod:`repro.analysis.batched`), bit-identical to rebuilding
each corner circuit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..analysis.ac import ac_analysis
from ..analysis.sweep import FrequencyGrid
from ..circuit.netlist import Circuit
from ..errors import AnalysisError
from .batched import (
    band_deviation_rows,
    relative_deviation_rows,
    scaled_values,
)
from .kernel import KernelStats

#: refuse to enumerate more corners than this (2^14 = 16384 sweeps)
MAX_COMPONENTS = 14


@dataclass(frozen=True)
class CornerAnalysis:
    """Envelope of the response over every tolerance-box vertex."""

    grid: FrequencyGrid
    tolerance: float
    components: Tuple[str, ...]
    #: per-corner worst Definition 1 deviation ``|ΔT/T|``, keyed by the
    #: sign pattern
    corner_deviation: Dict[Tuple[int, ...], float]
    #: point-wise envelope of ``|ΔT/T|`` over all corners
    envelope: np.ndarray
    #: per-corner worst band deviation ``|ΔT|/max|T|`` (explicitly
    #: band-normalised; not comparable with Definition 1 quantities)
    band_corner_deviation: Dict[Tuple[int, ...], float]
    #: point-wise envelope of ``|ΔT|/max|T|`` over all corners
    band_envelope: np.ndarray

    @property
    def n_corners(self) -> int:
        return len(self.corner_deviation)

    @property
    def worst_corner(self) -> Tuple[int, ...]:
        """Sign pattern (+1/−1 per component) of the worst vertex."""
        return max(self.corner_deviation, key=self.corner_deviation.get)

    @property
    def worst_deviation(self) -> float:
        """The guaranteed fault-free Definition 1 deviation bound."""
        return self.corner_deviation[self.worst_corner]

    @property
    def worst_band_deviation(self) -> float:
        """Worst tolerance-band (``|ΔT|/max|T|``) deviation over corners."""
        return max(self.band_corner_deviation.values())

    def describe_worst(self) -> str:
        pattern = self.worst_corner
        parts = [
            f"{name}{'+' if sign > 0 else '-'}"
            for name, sign in zip(self.components, pattern)
        ]
        return (
            f"worst corner ({100 * self.worst_deviation:.1f}% relative "
            f"deviation): " + " ".join(parts)
        )

    def epsilon_floor(self) -> float:
        """Smallest ε guaranteed not to fail any in-tolerance circuit.

        A Definition 1 (point-wise ``|ΔT/T|``) quantity — the same
        normalisation as
        :meth:`~repro.analysis.montecarlo.ToleranceAnalysis.suggested_epsilon`,
        so the two compare directly on a shared circuit.
        """
        return self.worst_deviation

    def band_epsilon_floor(self) -> float:
        """ε floor in the tolerance-band normalisation (``|ΔT|/max|T|``)."""
        return self.worst_band_deviation


def corner_analysis(
    circuit: Circuit,
    grid: FrequencyGrid,
    tolerance: float = 0.05,
    components: Optional[Sequence[str]] = None,
    output: Optional[str] = None,
    stats: Optional[KernelStats] = None,
) -> CornerAnalysis:
    """Evaluate every ``±tolerance`` corner of the component box.

    Deviations use the paper's Definition 1 criterion (point-wise
    ``|ΔT/T|``), matching :func:`~repro.analysis.montecarlo.monte_carlo_tolerance`,
    so :meth:`CornerAnalysis.epsilon_floor` compares directly against
    the Monte Carlo ε suggestion; the band-normalised values ride along
    under the ``band_*`` names.
    """
    if tolerance <= 0:
        raise AnalysisError("tolerance must be > 0")
    if tolerance >= 1.0:
        raise AnalysisError(
            f"tolerance must be < 1 for corner analysis (got "
            f"{tolerance:g}: the -tolerance vertex would scale a "
            "component to a non-positive value)"
        )
    if components is None:
        components = [e.name for e in circuit.passives()]
    names = tuple(components)
    if not names:
        raise AnalysisError(f"{circuit.title}: no components to corner")
    if len(names) > MAX_COMPONENTS:
        raise AnalysisError(
            f"{len(names)} components would need 2^{len(names)} corners; "
            f"cap is 2^{MAX_COMPONENTS} — pass a component subset or use "
            "monte_carlo_tolerance"
        )

    nominal = ac_analysis(circuit, grid, output=output, stats=stats)
    if float(np.max(nominal.magnitude)) <= 0:
        raise AnalysisError("nominal response is identically zero")

    sign_patterns = list(product((-1, +1), repeat=len(names)))
    factors = 1.0 + np.asarray(sign_patterns, dtype=float) * tolerance
    values = scaled_values(
        circuit, grid, names, factors, output=output, stats=stats
    )
    deviation_rows = relative_deviation_rows(nominal.values, values)
    band_rows = band_deviation_rows(nominal.values, values)

    corner_deviation: Dict[Tuple[int, ...], float] = {}
    band_corner_deviation: Dict[Tuple[int, ...], float] = {}
    envelope = np.zeros(grid.n_points)
    band_envelope = np.zeros(grid.n_points)
    for signs, deviation, band in zip(sign_patterns, deviation_rows, band_rows):
        corner_deviation[signs] = float(np.max(deviation))
        band_corner_deviation[signs] = float(np.max(band))
        np.maximum(envelope, deviation, out=envelope)
        np.maximum(band_envelope, band, out=band_envelope)

    return CornerAnalysis(
        grid=grid,
        tolerance=tolerance,
        components=names,
        corner_deviation=corner_deviation,
        envelope=envelope,
        band_corner_deviation=band_corner_deviation,
        band_envelope=band_envelope,
    )
