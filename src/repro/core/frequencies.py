"""Test-frequency selection (extension of the §4.2 test-time cost).

Once a configuration set is chosen, the tester still has to pick the sine
frequencies to apply in each configuration.  Each (configuration,
frequency) pair detects the faults whose detection region contains that
frequency, so picking the smallest measurement set is another covering
problem — this time over the per-pair detection masks recorded by the
fault simulator.

The resulting schedule directly instantiates the paper's test-time cost:
``test time = Σ configs (t_reconfigure + n_frequencies·t_measure)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..dft.configuration import Configuration
from ..errors import InfeasibleCoverError, OptimizationError
from .covering import CoverageProblem, branch_and_bound_cover, greedy_cover

if TYPE_CHECKING:  # avoid the runtime cycle faults.simulator -> core
    from ..faults.simulator import DetectabilityDataset


@dataclass(frozen=True)
class Measurement:
    """One (configuration, test frequency) pair of the schedule."""

    config_label: str
    config_index: int
    frequency_hz: float

    def describe(self) -> str:
        return f"{self.config_label} @ {self.frequency_hz:.4g} Hz"


@dataclass(frozen=True)
class TestSchedule:
    """A measurement set covering every detectable fault."""

    measurements: Tuple[Measurement, ...]
    covered_faults: Tuple[str, ...]
    uncoverable_faults: Tuple[str, ...]

    @property
    def n_measurements(self) -> int:
        return len(self.measurements)

    @property
    def n_configurations(self) -> int:
        return len({m.config_index for m in self.measurements})

    def frequencies_for(self, config_index: int) -> List[float]:
        return sorted(
            m.frequency_hz
            for m in self.measurements
            if m.config_index == config_index
        )

    def test_time_s(
        self, t_reconfigure_s: float = 1e-3, t_measure_s: float = 5e-3
    ) -> float:
        """Paper-style test-time model evaluated on the schedule."""
        return (
            self.n_configurations * t_reconfigure_s
            + self.n_measurements * t_measure_s
        )

    def render(self) -> str:
        lines = [
            f"{self.n_measurements} measurement(s) over "
            f"{self.n_configurations} configuration(s):"
        ]
        lines.extend("  " + m.describe() for m in self.measurements)
        if self.uncoverable_faults:
            lines.append(
                "uncoverable faults: " + ", ".join(self.uncoverable_faults)
            )
        return "\n".join(lines)


def _measurement_id(config_position: int, freq_index: int, n_freq: int) -> int:
    return config_position * n_freq + freq_index


def select_test_frequencies(
    dataset: "DetectabilityDataset",
    configs: Optional[Sequence[Configuration]] = None,
    method: str = "greedy",
    candidate_stride: int = 1,
) -> TestSchedule:
    """Choose a minimal measurement set covering every detectable fault.

    Parameters
    ----------
    dataset:
        Fault-simulation results carrying the per-pair detection masks.
    configs:
        Configurations available to the tester (defaults to all in the
        dataset).
    method:
        ``"greedy"`` (fast, near-optimal) or ``"exact"`` (branch and
        bound over measurement ids).
    candidate_stride:
        Consider every ``stride``-th grid frequency as a candidate
        measurement — the exact solver benefits from a coarser candidate
        set, and detection regions are wide compared to the grid pitch.
    """
    if method not in ("greedy", "exact"):
        raise OptimizationError(f"unknown selection method {method!r}")
    if candidate_stride < 1:
        raise OptimizationError("candidate_stride must be >= 1")
    if configs is None:
        configs = list(dataset.configs)
    if not configs:
        raise OptimizationError("no configurations to schedule")

    grid = dataset.setup.grid
    frequencies = grid.frequencies_hz[::candidate_stride]
    n_freq = frequencies.size
    # (fault, configuration position, candidate frequency)
    masks = dataset.restricted(configs).masks[:, :, ::candidate_stride]
    masks = masks.transpose(1, 0, 2)

    clauses: List[Tuple[str, FrozenSet[int]]] = []
    uncoverable: List[str] = []
    for fault, mask in zip(dataset.fault_labels, masks):
        positions, freq_indices = np.nonzero(mask)
        if positions.size:
            covering = _measurement_id(positions, freq_indices, n_freq)
            clauses.append((fault, frozenset(covering.tolist())))
        else:
            uncoverable.append(fault)

    problem = CoverageProblem(
        clauses=tuple(clauses),
        undetectable=tuple(uncoverable),
        all_configs=tuple(range(len(configs) * n_freq)),
    )
    if not clauses:
        return TestSchedule(
            measurements=(),
            covered_faults=(),
            uncoverable_faults=tuple(uncoverable),
        )
    if method == "greedy":
        chosen = greedy_cover(problem)
    else:
        chosen = branch_and_bound_cover(problem)
    if not chosen and clauses:
        raise InfeasibleCoverError("no measurement set covers the faults")

    measurements = []
    for measurement_id in sorted(chosen):
        position, freq_index = divmod(measurement_id, n_freq)
        config = configs[position]
        measurements.append(
            Measurement(
                config_label=config.label,
                config_index=config.index,
                frequency_hz=float(frequencies[freq_index]),
            )
        )
    measurements.sort(key=lambda m: (m.config_index, m.frequency_hz))
    return TestSchedule(
        measurements=tuple(measurements),
        covered_faults=tuple(fault for fault, _ in clauses),
        uncoverable_faults=tuple(uncoverable),
    )


def frequencies_per_configuration(
    schedule: TestSchedule,
) -> Dict[int, List[float]]:
    """Map configuration index → sorted test frequencies."""
    result: Dict[int, List[float]] = {}
    for measurement in schedule.measurements:
        result.setdefault(measurement.config_index, []).append(
            measurement.frequency_hz
        )
    return {k: sorted(v) for k, v in result.items()}
