"""Monte Carlo process-tolerance analysis.

Definition 1 of the paper compares ``|ΔT/T|`` against a tolerance ``ε``
chosen "to take into account possible fluctuations in the process
environment".  This module makes that choice quantitative: sample every
passive component within its process tolerance, record the envelope of the
fault-free response family, and derive the smallest ``ε`` that would not
flag a within-tolerance circuit as faulty.

The sample family is assembled in one pass (:mod:`repro.analysis.batched`)
instead of rebuilding one circuit per sample; the deviations are
bit-identical to that per-sample rebuild for the same seed — the
``tolerance`` oracle of :mod:`repro.verify` checks it at zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..circuit.netlist import Circuit
from ..errors import AnalysisError
from .ac import ac_analysis
from .batched import relative_deviation_rows, scaled_values
from .kernel import KernelStats
from .sweep import FrequencyGrid

#: recognised Monte Carlo sampling distributions
DISTRIBUTIONS = ("uniform", "normal")


@dataclass(frozen=True)
class ToleranceAnalysis:
    """Result of a Monte Carlo tolerance run.

    Attributes
    ----------
    grid:
        Frequency grid of the analysis.
    deviations:
        Matrix (n_samples × n_points) of ``|ΔT/T|`` of each sample
        relative to the nominal response.
    tolerance:
        The per-component relative tolerance that was sampled.
    """

    grid: FrequencyGrid
    deviations: np.ndarray
    tolerance: float

    @property
    def n_samples(self) -> int:
        return int(self.deviations.shape[0])

    def max_deviation_per_sample(self) -> np.ndarray:
        """Worst-case ``|ΔT/T|`` over frequency, per Monte Carlo sample."""
        return np.max(self.deviations, axis=1)

    def envelope(self) -> np.ndarray:
        """Point-wise worst-case deviation over all samples."""
        return np.max(self.deviations, axis=0)

    def suggested_epsilon(self, percentile: float = 95.0) -> float:
        """Smallest ε that keeps ``percentile`` % of good circuits passing.

        A detection threshold below this value would produce yield loss:
        fault-free circuits within process tolerance would be flagged.
        The value is a Definition 1 (point-wise ``|ΔT/T|``) quantity,
        directly comparable with
        :meth:`~repro.analysis.corners.CornerAnalysis.epsilon_floor`.
        """
        return float(
            np.percentile(self.max_deviation_per_sample(), percentile)
        )


def sample_factors(
    rng: np.random.Generator,
    n_samples: int,
    n_components: int,
    tolerance: float,
    distribution: str,
) -> np.ndarray:
    """``(n_samples, n_components)`` matrix of component scale factors.

    The matrix is filled in C order — sample-major, component-minor —
    which consumes the generator stream in exactly the order the
    historical per-sample loop drew its scalars, so a given seed selects
    the same sampled circuits as that loop did.
    """
    if distribution == "uniform":
        return 1.0 + rng.uniform(
            -tolerance, tolerance, size=(n_samples, n_components)
        )
    # σ = tolerance/3 (3-sigma at the bound), clipped to a sane range.
    factors = 1.0 + rng.normal(
        0.0, tolerance / 3.0, size=(n_samples, n_components)
    )
    return np.clip(factors, 0.1, 1.9)


def monte_carlo_tolerance(
    circuit: Circuit,
    grid: FrequencyGrid,
    tolerance: float = 0.05,
    n_samples: int = 200,
    components: Optional[Sequence[str]] = None,
    output: Optional[str] = None,
    distribution: str = "uniform",
    seed: Optional[int] = 2026,
    stats: Optional[KernelStats] = None,
) -> ToleranceAnalysis:
    """Sample component values within ``tolerance`` and collect deviations.

    Parameters
    ----------
    circuit:
        Nominal circuit.
    grid:
        Frequency grid for the responses.
    tolerance:
        Relative process tolerance (0.05 = ±5%).  Must be below 1 under
        the uniform distribution — a unit tolerance could scale a
        component to a non-positive value.
    n_samples:
        Number of Monte Carlo samples.
    components:
        Components to vary; defaults to every passive.
    distribution:
        ``"uniform"`` over ±tolerance or ``"normal"`` with σ = tolerance/3
        (3-sigma at the tolerance bound).
    seed:
        PRNG seed — runs are reproducible by default; ``None`` draws a
        fresh :func:`numpy.random.default_rng` stream.
    stats:
        Optional :class:`~repro.analysis.kernel.KernelStats` accumulating
        the solve / factorization counts of every sweep.
    """
    if tolerance <= 0:
        raise AnalysisError("tolerance must be > 0")
    if distribution not in DISTRIBUTIONS:
        raise AnalysisError(
            f"unknown distribution {distribution!r}; use one of "
            f"{DISTRIBUTIONS}"
        )
    if distribution == "uniform" and tolerance >= 1.0:
        raise AnalysisError(
            f"tolerance must be < 1 under the uniform distribution "
            f"(got {tolerance:g}: a -100% draw would scale a component "
            "to a non-positive value)"
        )
    if n_samples < 1:
        raise AnalysisError("n_samples must be >= 1")
    if components is None:
        components = [e.name for e in circuit.passives()]
    if not components:
        raise AnalysisError(f"{circuit.title}: no components to vary")

    rng = np.random.default_rng(seed)
    factors = sample_factors(
        rng, n_samples, len(components), tolerance, distribution
    )
    nominal = ac_analysis(circuit, grid, output=output, stats=stats)

    values = scaled_values(
        circuit, grid, components, factors, output=output, stats=stats
    )
    deviations = relative_deviation_rows(nominal.values, values)

    return ToleranceAnalysis(
        grid=grid,
        deviations=deviations,
        tolerance=tolerance,
    )


def epsilon_headroom(
    analysis: ToleranceAnalysis, epsilon: float, percentile: float = 95.0
) -> float:
    """Margin between a chosen ε and the process-noise floor.

    Positive headroom means ε sits above the ``percentile`` worst-case
    fault-free deviation — the detection threshold will not eat into
    yield.
    """
    return epsilon - analysis.suggested_epsilon(percentile)
