"""The ordered-requirement optimization pipeline (paper §4).

The procedure is exactly the paper's:

1. **Fundamental requirement** — enumerate every irredundant
   configuration set maintaining the maximum fault coverage
   (:func:`repro.core.covering.solve_covering`);
2. **2nd-order requirement** — keep the candidates optimal under a
   user-defined cost function (configuration count, opamp count, test
   time, area, ...);
3. **3rd-order requirement** — break remaining ties with a second cost
   function (typically the average ω-detectability rate).

Any number of ordered requirements is supported; each stage filters the
candidate list to the optimum of its cost function, and the stages are
recorded so reports can show the narrowing — e.g. the biquad's
``{C1·C2, C2·C5} → {C2·C5}`` story.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..errors import OptimizationError
from .boolean_alg import ProductTerm
from .covering import CoveringSolution, solve_covering
from .costs import CostFunction
from .matrix import FaultDetectabilityMatrix, OmegaDetectabilityTable

#: relative tolerance when comparing float costs for ties
_TIE_REL_TOL = 1e-9


def _is_tie(a: float, b: float) -> bool:
    scale = max(abs(a), abs(b), 1e-30)
    return abs(a - b) <= _TIE_REL_TOL * scale


@dataclass(frozen=True)
class OptimizationStage:
    """Snapshot of one requirement application."""

    requirement: str
    direction: str
    evaluations: Tuple[Tuple[FrozenSet[int], float], ...]
    survivors: Tuple[FrozenSet[int], ...]

    @property
    def best_value(self) -> float:
        for configs, value in self.evaluations:
            if configs in self.survivors:
                return value
        raise OptimizationError("stage has no surviving candidate")


@dataclass(frozen=True)
class OptimizationResult:
    """Complete record of an optimization run."""

    covering: CoveringSolution
    stages: Tuple[OptimizationStage, ...]
    selected: FrozenSet[int]

    @property
    def selected_labels(self) -> Tuple[str, ...]:
        return tuple(f"C{i}" for i in sorted(self.selected))

    def stage(self, requirement: str) -> OptimizationStage:
        for stage in self.stages:
            if stage.requirement == requirement:
                return stage
        raise OptimizationError(f"no stage named {requirement!r}")

    def render(self) -> str:
        lines = [self.covering.render()]
        lines.append(
            "candidates: "
            + ", ".join(
                "{" + term.render() + "}" for term in self.covering.covers
            )
        )
        for stage in self.stages:
            survivors = ", ".join(
                "{" + ProductTerm(s).render() + "}" for s in stage.survivors
            )
            lines.append(
                f"after {stage.requirement} ({stage.direction}): {survivors}"
            )
        lines.append(
            "selected: {" + ProductTerm(self.selected).render() + "}"
        )
        return "\n".join(lines)


class DftOptimizer:
    """Optimize the application of the multi-configuration DFT.

    Parameters
    ----------
    matrix:
        Fault detectability matrix over the candidate configurations.
    omega_table:
        Optional ω-detectability table; required only by cost functions
        that reference it.
    """

    def __init__(
        self,
        matrix: FaultDetectabilityMatrix,
        omega_table: Optional[OmegaDetectabilityTable] = None,
    ):
        self.matrix = matrix
        self.omega_table = omega_table
        self._covering: Optional[CoveringSolution] = None

    @property
    def covering(self) -> CoveringSolution:
        """The fundamental-requirement solution (computed lazily)."""
        if self._covering is None:
            self._covering = solve_covering(self.matrix)
        return self._covering

    # ------------------------------------------------------------------
    def candidates(self) -> List[FrozenSet[int]]:
        """All irredundant covering configuration sets."""
        return [frozenset(term.literals) for term in self.covering.covers]

    def optimize(
        self, requirements: Sequence[CostFunction]
    ) -> OptimizationResult:
        """Apply ordered ``requirements`` to the candidate covers.

        Each requirement keeps only the candidates whose cost ties the
        optimum; the final selection is the deterministic first survivor
        (sorted by size then indices) so runs are reproducible.
        """
        survivors = self.candidates()
        if not survivors:
            raise OptimizationError(
                "fundamental requirement has no solution "
                "(empty covering expression)"
            )
        stages: List[OptimizationStage] = []
        for requirement in requirements:
            evaluations: List[Tuple[FrozenSet[int], float]] = [
                (candidate, requirement.evaluate(candidate))
                for candidate in survivors
            ]
            if requirement.direction == "min":
                best = min(value for _, value in evaluations)
            else:
                best = max(value for _, value in evaluations)
            survivors = [
                candidate
                for candidate, value in evaluations
                if _is_tie(value, best)
            ]
            stages.append(
                OptimizationStage(
                    requirement=requirement.name,
                    direction=requirement.direction,
                    evaluations=tuple(evaluations),
                    survivors=tuple(survivors),
                )
            )
        selected = sorted(survivors, key=lambda s: (len(s), sorted(s)))[0]
        return OptimizationResult(
            covering=self.covering,
            stages=tuple(stages),
            selected=selected,
        )

    def pareto(
        self, costs: Sequence[CostFunction]
    ) -> List["ParetoPoint"]:
        """Pareto front of the irredundant covers under ``costs``."""
        return pareto_front(self.candidates(), costs)

    # ------------------------------------------------------------------
    def summarize_selection(
        self, result: OptimizationResult
    ) -> Dict[str, float]:
        """Key figures of a selected configuration set."""
        selected = sorted(result.selected)
        summary: Dict[str, float] = {
            "n_configurations": float(len(selected)),
            "fault_coverage": self.matrix.fault_coverage(selected),
            "max_fault_coverage": self.matrix.fault_coverage(None),
        }
        if self.omega_table is not None:
            usable = [
                i
                for i in selected
                if i in self.omega_table.config_indices
            ]
            summary["average_omega_detectability"] = (
                self.omega_table.average_rate(usable)
            )
        return summary


# ----------------------------------------------------------------------
# multi-objective view
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ParetoPoint:
    """One non-dominated candidate with its cost vector."""

    configs: FrozenSet[int]
    values: Tuple[float, ...]

    def labels(self) -> Tuple[str, ...]:
        return tuple(f"C{i}" for i in sorted(self.configs))


def pareto_front(
    candidates: Sequence[FrozenSet[int]],
    costs: Sequence[CostFunction],
) -> List[ParetoPoint]:
    """Non-dominated candidates under several simultaneous costs.

    The paper's pipeline is *lexicographic* — each requirement fully
    dominates the next.  When the user-defined costs genuinely trade off
    (e.g. configurable-opamp count against ω-detectability), the Pareto
    front shows every rational choice instead of forcing an order.

    A candidate dominates another when it is no worse on every cost and
    strictly better on at least one (costs with ``direction="max"`` are
    negated internally).  The front is returned sorted by the first
    cost, then the remaining ones.
    """
    if not costs:
        raise OptimizationError("pareto_front needs at least one cost")

    def key_vector(candidate: FrozenSet[int]) -> Tuple[float, ...]:
        vector = []
        for cost in costs:
            value = cost.evaluate(candidate)
            vector.append(value if cost.direction == "min" else -value)
        return tuple(vector)

    scored = [
        (candidate, key_vector(candidate)) for candidate in candidates
    ]

    def dominates(a: Tuple[float, ...], b: Tuple[float, ...]) -> bool:
        return all(x <= y for x, y in zip(a, b)) and any(
            x < y for x, y in zip(a, b)
        )

    front: List[ParetoPoint] = []
    for candidate, vector in scored:
        if any(
            dominates(other_vector, vector)
            for _, other_vector in scored
            if other_vector != vector
        ):
            continue
        # Re-evaluate in user units (undo the max negation).
        values = tuple(cost.evaluate(candidate) for cost in costs)
        point = ParetoPoint(configs=candidate, values=values)
        if all(p.configs != point.configs for p in front):
            front.append(point)
    front.sort(key=lambda p: (p.values, sorted(p.configs)))
    return front
