"""AC small-signal analysis: frequency responses and transfer functions.

:func:`ac_analysis` sweeps a circuit over a :class:`FrequencyGrid` and
returns a :class:`FrequencyResponse` — the measured test parameter
``T(ω)`` of the paper.  With the conventional 1 V AC source the response
*is* the voltage transfer function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..circuit.netlist import Circuit
from ..errors import AnalysisError
from .batched import ZERO_NOMINAL_BAND
from .kernel import KernelStats
from .mna import MnaSystem
from .sweep import FrequencyGrid


@dataclass(frozen=True)
class FrequencyResponse:
    """A complex response sampled over a frequency grid.

    Attributes
    ----------
    grid:
        The frequency grid the response was sampled on.
    values:
        Complex response samples, one per grid point.
    label:
        Human-readable description (circuit / probe).
    """

    grid: FrequencyGrid
    values: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=complex)
        if values.shape != self.grid.frequencies_hz.shape:
            raise AnalysisError(
                "response length does not match the frequency grid"
            )
        object.__setattr__(self, "values", values)

    @property
    def frequencies_hz(self) -> np.ndarray:
        return self.grid.frequencies_hz

    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.values)

    @property
    def magnitude_db(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return 20.0 * np.log10(np.abs(self.values))

    @property
    def phase_deg(self) -> np.ndarray:
        return np.degrees(np.angle(self.values))

    def at(self, frequency_hz: float) -> complex:
        """Response at the grid point closest to ``frequency_hz``."""
        index = int(np.argmin(np.abs(self.frequencies_hz - frequency_hz)))
        return complex(self.values[index])

    def peak(self) -> tuple:
        """(frequency, magnitude) of the magnitude peak."""
        index = int(np.argmax(self.magnitude))
        return float(self.frequencies_hz[index]), float(self.magnitude[index])

    def relative_deviation(self, other: "FrequencyResponse") -> np.ndarray:
        """``|ΔT| / |T|`` of ``other`` relative to this nominal response.

        The deviation is computed on magnitudes, matching the paper's
        HSPICE magnitude-response comparison.  Points where the nominal
        magnitude is *numerically* zero — below machine epsilon times the
        peak magnitude — yield ``inf`` when the other response carries
        signal there and 0 when both vanish.  The floor is essential for
        engine agreement: a magnitude of ``1e-300`` at a transmission
        zero is pure solver rounding, and dividing by it would turn the
        differing last bits of two exact-to-rounding engines into an
        arbitrarily large "relative deviation" (an absolute-noise
        comparison masquerading as a relative one).
        """
        if other.grid is not self.grid and not np.array_equal(
            other.frequencies_hz, self.frequencies_hz
        ):
            raise AnalysisError(
                "cannot compare responses sampled on different grids"
            )
        nominal = self.magnitude
        faulty = other.magnitude
        delta = np.abs(faulty - nominal)
        tiny = np.finfo(float).eps * float(np.max(nominal))
        with np.errstate(divide="ignore", invalid="ignore"):
            deviation = np.where(
                nominal > tiny,
                delta / nominal,
                np.where(delta > tiny, np.inf, 0.0),
            )
        return deviation

    def band_deviation(self, other: "FrequencyResponse") -> np.ndarray:
        """``|ΔT| / max_ω|T|`` — tolerance-band deviation.

        The deviation of ``other`` relative to a tolerance band of
        constant width around the nominal magnitude curve, the width
        being ``ε`` times the passband (peak) level.  This matches the
        paper's Figure 2 picture and, unlike the point-wise relative
        deviation, does not count vanishing-magnitude stopband deviations
        as detections.
        """
        if other.grid is not self.grid and not np.array_equal(
            other.frequencies_hz, self.frequencies_hz
        ):
            raise AnalysisError(
                "cannot compare responses sampled on different grids"
            )
        reference = float(np.max(self.magnitude))
        if reference <= 0.0:
            raise AnalysisError(ZERO_NOMINAL_BAND)
        return np.abs(other.magnitude - self.magnitude) / reference

    def group_delay_s(self) -> np.ndarray:
        """Group delay ``−dφ/dω`` estimated by finite differences."""
        phase = np.unwrap(np.angle(self.values))
        omega = 2.0 * np.pi * self.frequencies_hz
        return -np.gradient(phase, omega)


def ac_analysis(
    circuit: Circuit,
    grid: FrequencyGrid,
    output: Optional[str] = None,
    label: Optional[str] = None,
    stats: Optional["KernelStats"] = None,
) -> FrequencyResponse:
    """Sweep ``circuit`` over ``grid`` and return ``V(output)``.

    Parameters
    ----------
    circuit:
        Circuit containing exactly the excitation it should be analysed
        with (normally a single 1 V AC source).
    grid:
        Frequency grid to sample.
    output:
        Probe node; defaults to ``circuit.output``.
    label:
        Label stored on the response; defaults to ``title:V(output)``.
    stats:
        Optional :class:`~repro.analysis.kernel.KernelStats` accumulating
        the sweep's solve / factorization counts.
    """
    probe = output or circuit.output
    if probe is None:
        raise AnalysisError(
            f"{circuit.title}: no output node designated for AC analysis"
        )
    system = MnaSystem(circuit)
    values = system.sweep_voltage(probe, grid.frequencies_hz, stats)
    return FrequencyResponse(
        grid=grid,
        values=values,
        label=label or f"{circuit.title}:V({probe})",
    )


def transfer_at(
    circuit: Circuit, frequency_hz: float, output: Optional[str] = None
) -> complex:
    """Single-point transfer value ``V(output)`` at one frequency."""
    probe = output or circuit.output
    if probe is None:
        raise AnalysisError(
            f"{circuit.title}: no output node designated for AC analysis"
        )
    system = MnaSystem(circuit)
    return system.solve_at(frequency_hz).voltage(probe)


def dc_gain(circuit: Circuit, output: Optional[str] = None) -> complex:
    """Zero-frequency transfer value (capacitors open, inductors short)."""
    probe = output or circuit.output
    if probe is None:
        raise AnalysisError(
            f"{circuit.title}: no output node designated for DC analysis"
        )
    system = MnaSystem(circuit)
    return system.solve_s(0.0 + 0.0j).voltage(probe)
