"""Output noise analysis (thermal + opamp input noise).

Computes the output noise spectral density of a circuit the way SPICE's
``.NOISE`` does, but with the machinery already present here:

* every resistor contributes a thermal (Johnson–Nyquist) current noise
  source ``i_n² = 4kT/R`` across its terminals;
* every opamp contributes an equivalent input voltage noise density
  ``e_n²`` in series with its non-inverting input (a plain white model;
  pass ``en_v_per_rt_hz`` per analysis);
* each contribution is propagated to the output through the adjoint
  (transposed) system — one stacked solve of ``(G + jωC)ᵀ y = e_out``
  per frequency covers *every* generator at once — and summed in power.

Validation anchors (see the tests): a lone RC lowpass integrates to the
textbook ``kT/C`` total output noise, a resistive divider shows the
parallel-resistance density ``4kT·(R1∥R2)``, and noise is invariant
under the DFT's transparent configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..circuit.components import Resistor, Switch
from ..circuit.netlist import Circuit
from ..circuit.opamp import OpAmp
from ..errors import AnalysisError, SingularCircuitError
from .kernel import SweepRequest, solve_sweep
from .mna import MnaSystem
from .sweep import FrequencyGrid

#: Boltzmann constant [J/K]
BOLTZMANN = 1.380649e-23
#: default analysis temperature [K]
ROOM_TEMPERATURE = 300.0


@dataclass(frozen=True)
class NoiseResult:
    """Output noise spectrum plus per-contributor breakdown."""

    grid: FrequencyGrid
    #: total output noise density [V²/Hz] per grid point
    total_psd: np.ndarray
    #: per-contributor densities [V²/Hz]
    contributions: Dict[str, np.ndarray]
    temperature_k: float

    @property
    def total_rms_density(self) -> np.ndarray:
        """Output noise density in V/√Hz."""
        return np.sqrt(self.total_psd)

    def integrated_rms(
        self,
        f_start: Optional[float] = None,
        f_stop: Optional[float] = None,
    ) -> float:
        """RMS output noise over a band (trapezoidal in linear f)."""
        f = self.grid.frequencies_hz
        mask = np.ones_like(f, dtype=bool)
        if f_start is not None:
            mask &= f >= f_start
        if f_stop is not None:
            mask &= f <= f_stop
        if np.count_nonzero(mask) < 2:
            raise AnalysisError("integration band holds < 2 grid points")
        return float(
            math.sqrt(np.trapezoid(self.total_psd[mask], f[mask]))
        )

    def dominant_contributor(self, frequency_hz: float) -> str:
        """Contributor with the highest density near ``frequency_hz``."""
        index = int(
            np.argmin(np.abs(self.grid.frequencies_hz - frequency_hz))
        )
        return max(
            self.contributions,
            key=lambda name: self.contributions[name][index],
        )

    def fraction_of(self, name: str) -> float:
        """Share of the total output noise power due to ``name``."""
        if name not in self.contributions:
            raise AnalysisError(f"no noise contributor {name!r}")
        f = self.grid.frequencies_hz
        total = np.trapezoid(self.total_psd, f)
        if total <= 0:
            return 0.0
        part = np.trapezoid(self.contributions[name], f)
        return float(part / total)


def _noise_sources(
    circuit: Circuit,
    temperature_k: float,
    en_v_per_rt_hz: float,
) -> List[Tuple[str, str, str, float, str]]:
    """(name, node+, node-, PSD, kind) of every noise generator.

    ``kind`` is ``"current"`` (PSD in A²/Hz, injected across nodes) or
    ``"voltage"`` (PSD in V²/Hz, applied at the opamp + input — handled
    by superposition through a current injection divided by nothing,
    see :func:`noise_analysis`).
    """
    sources: List[Tuple[str, str, str, float, str]] = []
    four_kt = 4.0 * BOLTZMANN * temperature_k
    for element in circuit:
        if isinstance(element, Resistor):
            sources.append(
                (
                    element.name,
                    element.n1,
                    element.n2,
                    four_kt / element.value,
                    "current",
                )
            )
        elif isinstance(element, Switch):
            sources.append(
                (
                    element.name,
                    element.n1,
                    element.n2,
                    four_kt / element.resistance,
                    "current",
                )
            )
        elif isinstance(element, OpAmp) and en_v_per_rt_hz > 0:
            sources.append(
                (
                    element.name,
                    element.inp,
                    element.inn,
                    en_v_per_rt_hz ** 2,
                    "voltage",
                )
            )
    return sources


def noise_analysis(
    circuit: Circuit,
    grid: FrequencyGrid,
    output: Optional[str] = None,
    temperature_k: float = ROOM_TEMPERATURE,
    en_v_per_rt_hz: float = 0.0,
) -> NoiseResult:
    """Output-referred noise spectrum of ``circuit``.

    Independent sources are silenced (their small-signal amplitude is
    irrelevant: noise propagation uses unit injections).  The transfer
    of every generator to the output comes from the **adjoint system**:
    one stacked solve of ``(G + jωC)ᵀ y = e_out`` per frequency yields
    the output row of the inverse, from which each generator's transfer
    is read off — no explicit matrix inverse, no per-generator solves.
    A singular grid point raises the typed :class:`AnalysisError`
    naming the frequency; a nearly singular system that would return
    non-finite garbage is caught by an explicit finiteness guard.

    Parameters
    ----------
    circuit:
        The circuit; its designated output (or ``output``) is the node
        whose noise is reported.
    grid:
        Frequency grid of the analysis.
    temperature_k:
        Analysis temperature (default 300 K).
    en_v_per_rt_hz:
        Opamp equivalent input voltage noise density (V/√Hz); 0 turns
        opamp noise off.
    """
    probe = output or circuit.output
    if probe is None:
        raise AnalysisError(
            f"{circuit.title}: no output node for noise analysis"
        )
    sources = _noise_sources(circuit, temperature_k, en_v_per_rt_hz)
    if not sources:
        raise AnalysisError(
            f"{circuit.title}: no noise generators (no resistors, "
            "switches or noisy opamps)"
        )

    system = MnaSystem(circuit)
    out_index = system.index_of(probe)
    frequencies = grid.frequencies_hz
    contributions = {
        name: np.zeros(frequencies.size)
        for name, *_ in sources
    }

    if out_index >= 0:
        # Adjoint method: (G + jωC)ᵀ y = e_out gives the output row of
        # the inverse, so (A⁻¹)[out, i] = y[i].  One stacked solve per
        # frequency replaces the historical explicit matrix inverse.
        e_out = np.zeros(system.size, dtype=complex)
        e_out[out_index] = 1.0
        request = SweepRequest(
            G=system.G.T, C=system.C.T, rhs=e_out, title=circuit.title
        )
        try:
            y = solve_sweep(request, frequencies)[:, :, 0]
        except SingularCircuitError:
            # Re-solve point-by-point to name the offending frequency.
            for f in frequencies:
                matrix = system.G.T + (2j * np.pi * f) * system.C.T
                try:
                    np.linalg.solve(matrix, e_out)
                except np.linalg.LinAlgError:
                    raise AnalysisError(
                        f"{circuit.title}: singular at {f:g} Hz in "
                        "noise analysis"
                    ) from None
            raise AnalysisError(
                f"{circuit.title}: singular matrix in noise analysis"
            ) from None
        if not np.all(np.isfinite(y)):
            raise AnalysisError(
                f"{circuit.title}: non-finite noise transfer (nearly "
                "singular matrix) in noise analysis"
            )
        for name, np_node, nn_node, psd, kind in sources:
            i = system.index_of(np_node)
            j = system.index_of(nn_node)
            if kind == "current":
                # Unit current from np to nn: rhs -1 at np, +1 at nn.
                transfer = np.zeros(frequencies.size, dtype=complex)
                if i >= 0:
                    transfer -= y[:, i]
                if j >= 0:
                    transfer += y[:, j]
            else:
                # Equivalent input voltage noise of an opamp: shift the
                # differential input by 1 V. For the ideal/single-pole
                # stamps this equals perturbing the opamp's constraint
                # row, i.e. injecting into the branch equation.
                row = system.index_of(
                    circuit[name].branch()  # type: ignore[union-attr]
                )
                amp = circuit[name]
                gain_row = (
                    1.0
                    if amp.model.is_ideal  # type: ignore[union-attr]
                    else amp.model.a0  # type: ignore[union-attr]
                )
                transfer = y[:, row] * gain_row
            contributions[name] += psd * np.abs(transfer) ** 2

    total = np.zeros(frequencies.size)
    for density in contributions.values():
        total += density
    return NoiseResult(
        grid=grid,
        total_psd=total,
        contributions=contributions,
        temperature_k=temperature_k,
    )


def kt_over_c(c_farad: float, temperature_k: float = ROOM_TEMPERATURE) -> float:
    """The textbook ``√(kT/C)`` RMS noise of a first-order RC."""
    if c_farad <= 0:
        raise AnalysisError("capacitance must be > 0")
    return math.sqrt(BOLTZMANN * temperature_k / c_farad)
