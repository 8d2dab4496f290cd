"""Detection-escape analysis: fault detection under process noise.

Definition 1 compares a *nominal* and a *faulty* response against ε, but
a manufactured circuit is never nominal: all its good components sit
somewhere inside the process-tolerance box.  Two error mechanisms follow:

* **test escape** — a faulty circuit whose good components happen to pull
  the response back inside the ε band passes the test;
* **yield loss** — a fault-free circuit whose components drift near the
  tolerance corners leaves the band and fails.

This module estimates both by Monte Carlo: sample the good components
within tolerance, superimpose the fault (or not), and apply the band test
at the measurement frequencies of a test schedule (or over the full
grid).  It quantifies the "possible fluctuations in the process
environment" the paper's ε is meant to absorb, turning the arbitrary
ε = 10% into an explicit operating point on the escape/yield-loss
trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..analysis.ac import ac_analysis
from ..analysis.kernel import KernelStats
from ..analysis.sweep import FrequencyGrid
from ..circuit.netlist import Circuit
from ..errors import AnalysisError
from .model import Fault


@dataclass(frozen=True)
class EscapeAnalysis:
    """Monte Carlo escape/yield figures for one circuit and fault list."""

    epsilon: float
    tolerance: float
    n_samples: int
    yield_loss: float
    escape_per_fault: Dict[str, float]

    @property
    def average_escape(self) -> float:
        if not self.escape_per_fault:
            return 0.0
        return float(np.mean(list(self.escape_per_fault.values())))

    @property
    def worst_fault(self) -> str:
        return max(self.escape_per_fault, key=self.escape_per_fault.get)

    def render(self) -> str:
        lines = [
            f"eps = {100 * self.epsilon:.0f}%, component tolerance "
            f"{100 * self.tolerance:.0f}%, {self.n_samples} samples:",
            f"  yield loss (good circuit fails): "
            f"{100 * self.yield_loss:.1f}%",
            f"  average test escape: {100 * self.average_escape:.1f}%",
        ]
        for fault, escape in sorted(self.escape_per_fault.items()):
            lines.append(f"    {fault}: escape {100 * escape:.1f}%")
        return "\n".join(lines)


def _sample_circuit(
    circuit: Circuit,
    components: Sequence[str],
    tolerance: float,
    rng: np.random.Generator,
) -> Circuit:
    sample = circuit
    for name in components:
        factor = 1.0 + rng.uniform(-tolerance, tolerance)
        sample = sample.with_scaled(name, factor)
    return sample


def escape_analysis(
    circuit: Circuit,
    faults: Sequence[Fault],
    grid: FrequencyGrid,
    epsilon: float = 0.10,
    tolerance: float = 0.02,
    n_samples: int = 50,
    frequencies_hz: Optional[Sequence[float]] = None,
    output: Optional[str] = None,
    seed: Optional[int] = 1998,
    stats: Optional[KernelStats] = None,
) -> EscapeAnalysis:
    """Estimate yield loss and per-fault escape probabilities.

    Parameters
    ----------
    circuit:
        The nominal circuit (one configuration of the DFT, typically).
    faults:
        Fault universe to measure escapes for.
    grid:
        Frequency grid of the reference response.
    epsilon, tolerance:
        Detection threshold and good-component process tolerance.
    n_samples:
        Monte Carlo samples per fault (and for the fault-free case).
    frequencies_hz:
        Restrict the comparison to these measurement frequencies (a test
        schedule); default compares over the full grid, i.e. an ideal
        sweep tester.
    seed:
        PRNG seed; ``None`` draws a fresh :func:`numpy.random.default_rng`
        stream (non-reproducible).
    stats:
        Accumulates the solve / factorization counters of every sampled
        sweep when given.
    """
    if epsilon <= 0 or tolerance < 0:
        raise AnalysisError("need epsilon > 0 and tolerance >= 0")
    if n_samples < 1:
        raise AnalysisError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    probe = output or circuit.output
    nominal = ac_analysis(circuit, grid, output=probe)
    reference = float(np.max(nominal.magnitude))
    if reference <= 0:
        raise AnalysisError("nominal response is identically zero")

    if frequencies_hz is None:
        compare_indices = np.arange(grid.n_points)
    else:
        compare_indices = np.array(
            [
                int(np.argmin(np.abs(grid.frequencies_hz - f)))
                for f in frequencies_hz
            ],
            dtype=int,
        )
        if compare_indices.size == 0:
            raise AnalysisError("no measurement frequencies given")

    components = [e.name for e in circuit.passives()]
    band = epsilon * reference
    nominal_points = nominal.magnitude[compare_indices]

    def fails(sample: Circuit) -> bool:
        response = ac_analysis(sample, grid, output=probe, stats=stats)
        deviation = np.abs(
            response.magnitude[compare_indices] - nominal_points
        )
        return bool(np.any(deviation > band))

    # Yield loss: fault-free samples that fail.
    failures = sum(
        fails(_sample_circuit(circuit, components, tolerance, rng))
        for _ in range(n_samples)
    )
    yield_loss = failures / n_samples

    # Escapes: faulty samples that pass.
    escape_per_fault: Dict[str, float] = {}
    for fault in faults:
        passes = 0
        for _ in range(n_samples):
            sample = _sample_circuit(
                circuit, components, tolerance, rng
            )
            if not fails(fault.apply(sample)):
                passes += 1
        label = getattr(fault, "short_name", fault.name)
        escape_per_fault[label] = passes / n_samples

    return EscapeAnalysis(
        epsilon=epsilon,
        tolerance=tolerance,
        n_samples=n_samples,
        yield_loss=yield_loss,
        escape_per_fault=escape_per_fault,
    )


def escape_tradeoff_curve(
    circuit: Circuit,
    faults: Sequence[Fault],
    grid: FrequencyGrid,
    epsilons: Sequence[float],
    tolerance: float = 0.02,
    n_samples: int = 30,
    output: Optional[str] = None,
    seed: Optional[int] = 1998,
) -> List[EscapeAnalysis]:
    """The ε operating curve: yield loss vs escape for several ε."""
    return [
        escape_analysis(
            circuit,
            faults,
            grid,
            epsilon=eps,
            tolerance=tolerance,
            n_samples=n_samples,
            output=output,
            seed=seed,
        )
        for eps in epsilons
    ]
