"""n-Detection test-set quality analysis.

The covering layer (``repro.core.covering``) can require every fault to
be detected by at least ``n`` retained configurations.  This module
quantifies what that multiplicity buys, following Pomeranz & Reddy's
worst-/average-case analysis of n-detection test sets, transposed to
the paper's analog setting:

* **ω-detectability statistics per fault** — over the configurations a
  cover actually selects, the *worst-case* ω (the weakest detection the
  fault relies on) and the *average-case* ω (Definition 2 averaged over
  the fault's selected detections);
* **robustness margins** — for every ``d_ij = 1`` entry of the
  detectability matrix, how far its peak deviation sits above the
  detection threshold once the fault-free tolerance noise floor is
  budgeted in.  The floor comes from the ε-calibration engine
  (:func:`~repro.analysis.corners.corner_analysis` /
  :func:`~repro.analysis.montecarlo.monte_carlo_tolerance`, both batched
  through :mod:`repro.analysis.batched`).
  An entry with ``margin <= 0`` can flip under in-tolerance component
  variation — a 1-detection cover that relies on it is fragile, which
  is exactly what raising ``n_detect`` hardens against;
* **coverage-vs-cost sweeps across n** — covers for ``n = 1, 2, ...``
  with their sizes and robustness scores, and the Pareto front over
  (configuration count, worst-case margin).

A fault *escapes* only when every one of its selected detections flips,
so a fault's robustness in a cover is the margin of its
hardest-to-flip selected detection; the cover's worst-case robustness
is the minimum of that over all detectable faults.  See
``docs/ndetection.md`` for the full model and a worked example.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import OptimizationError
from .covering import (
    branch_and_bound_cover,
    build_coverage_problem,
    greedy_cover,
)
from .matrix import FaultDetectabilityMatrix, OmegaDetectabilityTable

#: solver names accepted by :func:`ndetect_cover` / :func:`ndetect_sweep`
SOLVERS = ("exact", "greedy")


def _selected_indices(
    matrix: FaultDetectabilityMatrix, configs: Iterable[object]
) -> FrozenSet[int]:
    rows = [matrix.row_of(c) for c in configs]
    return frozenset(matrix.config_indices[i] for i in rows)


def detection_counts(
    matrix: FaultDetectabilityMatrix, configs: Iterable[object]
) -> Dict[str, int]:
    """Per-fault count of selected configurations that detect it."""
    selected = _selected_indices(matrix, configs)
    return {
        fault: len(matrix.covering_configs(fault) & selected)
        for fault in matrix.fault_names
    }


def max_feasible_n(matrix: FaultDetectabilityMatrix) -> int:
    """Largest ``n_detect`` every detectable fault can reach.

    Faults with empty columns are excluded (they are set aside by the
    covering layer at every ``n``).  Returns 0 when no fault is
    detectable at all.
    """
    sizes = [
        len(matrix.covering_configs(fault))
        for fault in matrix.fault_names
    ]
    sizes = [s for s in sizes if s > 0]
    return min(sizes) if sizes else 0


def calibrate_noise_floor(
    circuit,
    grid,
    tolerance: float = 0.05,
    method: str = "corners",
    criterion: str = "band",
    components: Optional[Sequence[str]] = None,
    output: Optional[str] = None,
    samples: int = 200,
    seed: Optional[int] = 2026,
    percentile: float = 95.0,
) -> float:
    """Fault-free deviation floor under component tolerances.

    This is the amount of deviation an in-tolerance *good* circuit can
    already show — any detection whose peak deviation clears ε by less
    than this floor can flip under process variation.

    ``method="corners"`` evaluates every ±tolerance corner
    (:func:`~repro.analysis.corners.corner_analysis`) and supports both
    deviation criteria; ``method="montecarlo"`` samples the tolerance
    box (:func:`~repro.analysis.montecarlo.monte_carlo_tolerance`) and
    is a Definition-1 (point-wise ``|ΔT/T|``) quantity only.
    """
    if criterion not in ("band", "relative"):
        raise OptimizationError(
            f"unknown deviation criterion {criterion!r}"
        )
    if method == "corners":
        from ..analysis.corners import corner_analysis

        analysis = corner_analysis(
            circuit,
            grid,
            tolerance=tolerance,
            components=components,
            output=output,
        )
        if criterion == "band":
            return float(analysis.band_epsilon_floor())
        return float(analysis.epsilon_floor())
    if method == "montecarlo":
        if criterion != "relative":
            raise OptimizationError(
                "the Monte Carlo floor is a point-wise |dT/T| quantity; "
                "use method='corners' for the band criterion"
            )
        from ..analysis.montecarlo import monte_carlo_tolerance

        analysis = monte_carlo_tolerance(
            circuit,
            grid,
            tolerance=tolerance,
            n_samples=samples,
            components=components,
            output=output,
            seed=seed,
        )
        return float(analysis.suggested_epsilon(percentile))
    raise OptimizationError(
        f"unknown calibration method {method!r}; "
        f"expected 'corners' or 'montecarlo'"
    )


def robustness_margins(
    dataset, noise_floor: float = 0.0
) -> Dict[Tuple[int, str], float]:
    """Margin before tolerance noise flips each ``d_ij = 1`` entry.

    For every detectable (configuration, fault) pair of a
    :class:`~repro.faults.simulator.DetectabilityDataset`, the margin is

    ``max_deviation - (epsilon + noise_floor)``

    — how far the entry's peak deviation clears the detection threshold
    after budgeting the fault-free floor.  Entries with ``margin <= 0``
    are *fragile*: an in-tolerance good circuit could shift the
    response enough to push the deviation back under ε.
    """
    margins = dataset.max_deviation - (dataset.setup.epsilon + noise_floor)
    return {
        (dataset.configs[i].index, dataset.fault_labels[j]): float(
            margins[i, j]
        )
        for i, j in zip(*np.nonzero(dataset.detectable))
    }


@dataclass(frozen=True)
class FaultQuality:
    """One fault's quality figures inside a specific cover."""

    fault: str
    #: selected configurations that detect the fault
    n_detections: int
    #: ω of the weakest selected detection (worst case)
    omega_worst: float
    #: mean ω over the selected detections (average case)
    omega_average: float
    #: margin of the weakest selected detection
    margin_worst: float
    #: margin of the strongest selected detection — what the fault's
    #: coverage ultimately relies on (it escapes only if *all* flip)
    margin_best: float


@dataclass(frozen=True)
class CoverRobustness:
    """Quality report of one configuration cover.

    Aggregates :class:`FaultQuality` over every fault the cover can
    reach; ``worst_case_margin`` is the headline robustness score —
    the minimum over faults of the hardest-to-flip selected detection.
    """

    configs: Tuple[int, ...]
    n_detect: int
    epsilon: float
    noise_floor: float
    per_fault: Tuple[FaultQuality, ...]
    worst_case_margin: float
    average_margin: float
    worst_case_omega: float
    average_omega: float
    #: faults whose every selected detection is fragile (margin <= 0)
    fragile_faults: Tuple[str, ...]
    #: selected d_ij = 1 entries with margin <= 0
    n_fragile_entries: int

    def quality_for(self, fault: str) -> FaultQuality:
        for quality in self.per_fault:
            if quality.fault == fault:
                return quality
        raise OptimizationError(f"no fault {fault!r} in this cover report")

    def render(self) -> str:
        configs = ",".join(f"C{i}" for i in self.configs)
        lines = [
            f"cover {{{configs}}} at n_detect={self.n_detect} "
            f"(eps={self.epsilon:g}, floor={self.noise_floor:g}):",
            f"  worst-case margin  {self.worst_case_margin:+.4g}",
            f"  average margin     {self.average_margin:+.4g}",
            f"  worst-case w-det   {100 * self.worst_case_omega:.1f}%",
            f"  average w-det      {100 * self.average_omega:.1f}%",
        ]
        if self.fragile_faults:
            lines.append(
                "  fragile faults     " + ", ".join(self.fragile_faults)
            )
        return "\n".join(lines)


def evaluate_cover(
    dataset,
    configs: Iterable[object],
    n_detect: int = 1,
    noise_floor: float = 0.0,
) -> CoverRobustness:
    """Worst-/average-case quality of a cover over a dataset.

    Faults detectable by no configuration of the dataset are excluded
    (max-achievable-coverage semantics); faults the *cover* misses
    contribute zero-ω, fully-fragile entries so a lossy cover cannot
    score well.
    """
    matrix = dataset.detectability_matrix()
    table = dataset.omega_table()
    epsilon = dataset.setup.epsilon
    margins = robustness_margins(dataset, noise_floor)
    selected = _selected_indices(matrix, configs)

    per_fault: List[FaultQuality] = []
    fragile_faults: List[str] = []
    n_fragile_entries = 0
    floor_margin = -(epsilon + noise_floor)
    for fault in matrix.fault_names:
        clause = matrix.covering_configs(fault)
        if not clause:
            continue
        detecting = sorted(clause & selected)
        if not detecting:
            per_fault.append(
                FaultQuality(
                    fault=fault,
                    n_detections=0,
                    omega_worst=0.0,
                    omega_average=0.0,
                    margin_worst=floor_margin,
                    margin_best=floor_margin,
                )
            )
            fragile_faults.append(fault)
            continue
        omegas = [table.value(i, fault) for i in detecting]
        entry_margins = [margins[(i, fault)] for i in detecting]
        n_fragile_entries += sum(1 for m in entry_margins if m <= 0.0)
        quality = FaultQuality(
            fault=fault,
            n_detections=len(detecting),
            omega_worst=min(omegas),
            omega_average=sum(omegas) / len(omegas),
            margin_worst=min(entry_margins),
            margin_best=max(entry_margins),
        )
        per_fault.append(quality)
        if quality.margin_best <= 0.0:
            fragile_faults.append(fault)

    if per_fault:
        worst_margin = min(q.margin_best for q in per_fault)
        average_margin = sum(q.margin_best for q in per_fault) / len(
            per_fault
        )
        worst_omega = min(q.omega_worst for q in per_fault)
        average_omega = sum(q.omega_average for q in per_fault) / len(
            per_fault
        )
    else:
        worst_margin = average_margin = 0.0
        worst_omega = average_omega = 0.0
    return CoverRobustness(
        configs=tuple(sorted(selected)),
        n_detect=n_detect,
        epsilon=epsilon,
        noise_floor=noise_floor,
        per_fault=tuple(per_fault),
        worst_case_margin=worst_margin,
        average_margin=average_margin,
        worst_case_omega=worst_omega,
        average_omega=average_omega,
        fragile_faults=tuple(fragile_faults),
        n_fragile_entries=n_fragile_entries,
    )


def ndetect_cover(
    matrix: FaultDetectabilityMatrix,
    n_detect: int = 1,
    solver: str = "exact",
    saturate: bool = False,
) -> FrozenSet[int]:
    """An n-detection cover of ``matrix`` by the named solver."""
    if solver not in SOLVERS:
        raise OptimizationError(
            f"unknown solver {solver!r}; expected one of {SOLVERS}"
        )
    problem = build_coverage_problem(
        matrix, n_detect=n_detect, saturate=saturate
    )
    if solver == "exact":
        return branch_and_bound_cover(problem)
    return greedy_cover(problem)


@dataclass(frozen=True)
class NDetectPoint:
    """One n-detection cover in the coverage-vs-cost sweep."""

    n_detect: int
    configs: Tuple[int, ...]
    n_configurations: int
    fault_coverage: float
    worst_case_margin: float
    average_margin: float
    worst_case_omega: float
    average_omega: float
    n_fragile_entries: int
    #: True when another sweep point is no worse on cost and strictly
    #: better on worst-case margin (or vice versa)
    dominated: bool = False

    def labels(self) -> Tuple[str, ...]:
        return tuple(f"C{i}" for i in self.configs)


def ndetect_sweep(
    dataset,
    n_values: Optional[Sequence[int]] = None,
    solver: str = "exact",
    saturate: bool = False,
    noise_floor: float = 0.0,
) -> List[NDetectPoint]:
    """Covers and robustness scores for a range of ``n_detect`` values.

    ``n_values`` defaults to ``1..max_feasible_n`` of the dataset's
    matrix.  Each point carries the cover's cost (configuration count)
    and quality figures; the ``dominated`` flag marks points another
    point beats on the (cost, worst-case margin) trade-off, so the
    non-dominated points form the coverage-vs-cost Pareto front.
    """
    matrix = dataset.detectability_matrix()
    if n_values is None:
        top = max_feasible_n(matrix)
        n_values = list(range(1, top + 1)) if top else []
    points: List[NDetectPoint] = []
    for n in n_values:
        if n < 1:
            raise OptimizationError(f"n_detect must be >= 1, got {n}")
        cover = ndetect_cover(
            matrix, n_detect=n, solver=solver, saturate=saturate
        )
        report = evaluate_cover(
            dataset, sorted(cover), n_detect=n, noise_floor=noise_floor
        )
        points.append(
            NDetectPoint(
                n_detect=n,
                configs=report.configs,
                n_configurations=len(report.configs),
                fault_coverage=matrix.fault_coverage(sorted(cover)),
                worst_case_margin=report.worst_case_margin,
                average_margin=report.average_margin,
                worst_case_omega=report.worst_case_omega,
                average_omega=report.average_omega,
                n_fragile_entries=report.n_fragile_entries,
            )
        )
    return mark_dominated(points)


def mark_dominated(points: Sequence[NDetectPoint]) -> List[NDetectPoint]:
    """Flag sweep points dominated on (cost ↓, worst-case margin ↑)."""

    def beats(a: NDetectPoint, b: NDetectPoint) -> bool:
        no_worse = (
            a.n_configurations <= b.n_configurations
            and a.worst_case_margin >= b.worst_case_margin
        )
        better = (
            a.n_configurations < b.n_configurations
            or a.worst_case_margin > b.worst_case_margin
        )
        return no_worse and better

    marked: List[NDetectPoint] = []
    for point in points:
        dominated = any(beats(other, point) for other in points)
        marked.append(
            NDetectPoint(
                n_detect=point.n_detect,
                configs=point.configs,
                n_configurations=point.n_configurations,
                fault_coverage=point.fault_coverage,
                worst_case_margin=point.worst_case_margin,
                average_margin=point.average_margin,
                worst_case_omega=point.worst_case_omega,
                average_omega=point.average_omega,
                n_fragile_entries=point.n_fragile_entries,
                dominated=dominated,
            )
        )
    return marked


def pareto_points(points: Sequence[NDetectPoint]) -> List[NDetectPoint]:
    """The non-dominated subset of a sweep (the Pareto front)."""
    return [p for p in mark_dominated(points) if not p.dominated]


def render_sweep(points: Sequence[NDetectPoint]) -> str:
    """ASCII table of a sweep, front members starred."""
    lines = [
        "  n  configs                  |S|   FC     worst-margin  "
        "avg-w-det  fragile"
    ]
    for p in points:
        star = " " if p.dominated else "*"
        configs = ",".join(p.labels())
        lines.append(
            f"{star} {p.n_detect}  {configs:24s} {p.n_configurations:3d}  "
            f"{100 * p.fault_coverage:5.1f}%  {p.worst_case_margin:+12.4g}  "
            f"{100 * p.average_omega:8.1f}%  {p.n_fragile_entries:7d}"
        )
    return "\n".join(lines)
