"""Baseline application strategies of the multi-configuration DFT.

The paper contrasts the *optimized* application against the *brute force*
one ("considering all the 2^n possible configurations").  For the scaling
benchmarks two more classical baselines are included: the greedy cover
heuristic and a seeded random cover — both return the same record type so
benchmark tables compare like with like.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import FrozenSet, Optional

from ..errors import InfeasibleCoverError, OptimizationError
from .covering import (
    branch_and_bound_cover,
    build_coverage_problem,
    greedy_cover,
)
from .matrix import FaultDetectabilityMatrix, OmegaDetectabilityTable


@dataclass(frozen=True)
class StrategyOutcome:
    """Outcome of one configuration-selection strategy."""

    strategy: str
    configs: FrozenSet[int]
    fault_coverage: float
    average_omega_detectability: float
    n_configurations: int
    n_configurable_opamps: int

    def render(self) -> str:
        config_list = ", ".join(f"C{i}" for i in sorted(self.configs))
        return (
            f"{self.strategy}: {{{config_list}}} | "
            f"FC={100 * self.fault_coverage:.1f}% | "
            f"<w-det>={100 * self.average_omega_detectability:.1f}% | "
            f"{self.n_configurations} conf / "
            f"{self.n_configurable_opamps} configurable opamps"
        )


def _outcome(
    strategy: str,
    configs: FrozenSet[int],
    matrix: FaultDetectabilityMatrix,
    omega_table: Optional[OmegaDetectabilityTable],
    n_opamps: int,
) -> StrategyOutcome:
    from .mapping import opamps_used_by

    known = [i for i in sorted(configs) if i in matrix.config_indices]
    average = 0.0
    if omega_table is not None:
        usable = [
            i for i in sorted(configs) if i in omega_table.config_indices
        ]
        average = omega_table.average_rate(usable)
    return StrategyOutcome(
        strategy=strategy,
        configs=configs,
        fault_coverage=matrix.fault_coverage(known),
        average_omega_detectability=average,
        n_configurations=len(configs),
        n_configurable_opamps=len(opamps_used_by(sorted(configs), n_opamps)),
    )


def brute_force_strategy(
    matrix: FaultDetectabilityMatrix,
    n_opamps: int,
    omega_table: Optional[OmegaDetectabilityTable] = None,
) -> StrategyOutcome:
    """Use every available configuration (the paper's brute force)."""
    configs = frozenset(matrix.config_indices)
    return _outcome("brute force", configs, matrix, omega_table, n_opamps)


def greedy_strategy(
    matrix: FaultDetectabilityMatrix,
    n_opamps: int,
    omega_table: Optional[OmegaDetectabilityTable] = None,
) -> StrategyOutcome:
    """Greedy set cover over the detectability matrix."""
    configs = greedy_cover(build_coverage_problem(matrix))
    return _outcome("greedy", configs, matrix, omega_table, n_opamps)


def exact_minimum_strategy(
    matrix: FaultDetectabilityMatrix,
    n_opamps: int,
    omega_table: Optional[OmegaDetectabilityTable] = None,
) -> StrategyOutcome:
    """Exact minimum-cardinality cover (branch and bound)."""
    configs = branch_and_bound_cover(build_coverage_problem(matrix))
    return _outcome("exact minimum", configs, matrix, omega_table, n_opamps)


def random_strategy(
    matrix: FaultDetectabilityMatrix,
    n_opamps: int,
    omega_table: Optional[OmegaDetectabilityTable] = None,
    seed: Optional[int] = 1998,
    max_attempts: int = 10_000,
) -> StrategyOutcome:
    """Random covering set: add random configurations until covered.

    A deliberately weak baseline showing the value of the optimization;
    deterministic for a given seed.  ``seed=None`` draws a fresh seed
    from system entropy — the drawn value still appears in the outcome's
    strategy label, so any run remains exactly reproducible.
    """
    problem = build_coverage_problem(matrix)
    if any(not clause for _, clause in problem.clauses):
        raise InfeasibleCoverError("a fault has an empty covering clause")
    if seed is None:
        seed = random.SystemRandom().randrange(2**32)
    rng = random.Random(seed)
    pool = list(matrix.config_indices)
    if not pool:
        raise OptimizationError("matrix has no configurations")
    chosen: set = set()
    for _ in range(max_attempts):
        if matrix.covers_all(sorted(chosen)):
            break
        chosen.add(rng.choice(pool))
    else:
        raise OptimizationError(
            "random strategy failed to cover within attempt budget"
        )
    return _outcome(
        f"random(seed={seed})",
        frozenset(chosen),
        matrix,
        omega_table,
        n_opamps,
    )
