"""The fundamental-requirement covering problem (paper §4.1).

Given a fault detectability matrix, the configurations retained by the
optimized DFT must keep the **maximum fault coverage**.  The module
implements the paper's procedure faithfully:

1. build the boolean expression ``ξ`` (one clause per detectable fault);
2. extract the **essential configurations** (sole cover of some fault);
3. build the **reduced** matrix / complementary expression ``ξ_compl``;
4. expand ``ξ = ξ_ess · ξ_compl`` into an absorbed sum-of-products whose
   terms are all the irredundant covering configuration sets.

For circuits where the Petrick expansion blows up, two classical
alternatives are provided: an exact branch-and-bound minimum cover and
the greedy heuristic (used as a baseline in the scaling benchmarks).

**n-detection covers** (Pomeranz & Reddy): a :class:`CoverageProblem`
carries a detection multiplicity ``n_detect`` — each fault must then be
detected by at least ``n`` of the retained configurations, which
hardens the test set against a single marginal detection flipping under
component tolerances (see ``docs/ndetection.md``).  The cover solvers
(:func:`branch_and_bound_cover`, :func:`greedy_cover`) honour it; ξ
itself is expanded at ``n = 1`` only, the paper's problem.  A fault
detectable by fewer than ``n`` configurations raises
:class:`~repro.errors.InsufficientDetectionsError` naming the fault,
unless the problem was built with ``saturate=True`` (explicit
best-effort: such faults require every configuration that detects
them).  Faults detectable by *no* configuration keep the historical
max-achievable-coverage semantics at every ``n``: set aside and
reported, never infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from ..errors import (
    InfeasibleCoverError,
    InsufficientDetectionsError,
    OptimizationError,
)
from .boolean_alg import (
    MAX_TERMS,
    ProductTerm,
    SumOfProducts,
    expand_product_of_sums,
)
from .matrix import FaultDetectabilityMatrix


@dataclass(frozen=True)
class CoverageProblem:
    """ξ in clause form: per-fault sets of covering configuration indices.

    ``n_detect`` is the detection multiplicity the cover solvers of
    this module honour (default 1, the paper's fundamental requirement);
    ``saturate=True`` clamps each fault's requirement to the number of
    configurations that can actually detect it instead of raising
    :class:`~repro.errors.InsufficientDetectionsError`.
    """

    clauses: Tuple[Tuple[str, FrozenSet[int]], ...]
    undetectable: Tuple[str, ...]
    all_configs: Tuple[int, ...]
    n_detect: int = 1
    saturate: bool = False

    @property
    def n_clauses(self) -> int:
        return len(self.clauses)

    def clause_for(self, fault: str) -> FrozenSet[int]:
        for name, clause in self.clauses:
            if name == fault:
                return clause
        raise OptimizationError(f"no clause for fault {fault!r}")

    def render_xi(self, config_prefix: str = "C") -> str:
        """Pretty ξ expression, one factor per fault, as in the paper."""
        if not self.clauses:
            return "1"
        factors = []
        for fault, clause in self.clauses:
            inner = "+".join(
                f"{config_prefix}{i}" for i in sorted(clause)
            )
            factors.append(f"({inner})[{fault}]")
        return ".".join(factors)


def build_coverage_problem(
    matrix: FaultDetectabilityMatrix,
    n_detect: int = 1,
    saturate: bool = False,
) -> CoverageProblem:
    """Clause form of ξ from a detectability matrix.

    Faults with empty columns are recorded as ``undetectable`` and
    excluded from the clauses — the fundamental requirement targets the
    *maximum achievable* coverage.  ``n_detect`` sets the detection
    multiplicity the cover solvers of the returned problem enforce.
    """
    if n_detect < 1:
        raise OptimizationError(
            f"n_detect must be >= 1, got {n_detect}"
        )
    clauses: List[Tuple[str, FrozenSet[int]]] = []
    undetectable: List[str] = []
    for fault in matrix.fault_names:
        covering = matrix.covering_configs(fault)
        if covering:
            clauses.append((fault, covering))
        else:
            undetectable.append(fault)
    return CoverageProblem(
        clauses=tuple(clauses),
        undetectable=tuple(undetectable),
        all_configs=tuple(matrix.config_indices),
        n_detect=n_detect,
        saturate=saturate,
    )


def detection_requirements(
    problem: CoverageProblem,
) -> Tuple[Tuple[str, FrozenSet[int], int], ...]:
    """Per-fault ``(fault, clause, required detections)`` triplets.

    The required count is ``problem.n_detect``, clamped to the clause
    size when the problem was built with ``saturate=True``.  A fault
    whose clause cannot reach the requirement raises
    :class:`~repro.errors.InsufficientDetectionsError` naming it.
    """
    requirements: List[Tuple[str, FrozenSet[int], int]] = []
    for fault, clause in problem.clauses:
        need = problem.n_detect
        if len(clause) < need:
            if not problem.saturate:
                raise InsufficientDetectionsError(
                    fault, need, len(clause)
                )
            need = len(clause)
        requirements.append((fault, clause, need))
    return tuple(requirements)


def essential_configurations(problem: CoverageProblem) -> FrozenSet[int]:
    """Configurations that are the *only* cover of some fault.

    These must belong to every solution ("such a configuration must
    mandatorily appear in the final configuration set", §4.1).  Under an
    n-detection requirement the rule generalises: a clause with exactly
    as many configurations as its required detection count forces every
    one of them.
    """
    essentials: Set[int] = set()
    for _, clause, need in detection_requirements(problem):
        if len(clause) == need:
            essentials.update(clause)
    return frozenset(essentials)


def reduce_problem(
    problem: CoverageProblem, chosen: FrozenSet[int]
) -> CoverageProblem:
    """Drop every clause already satisfied by ``chosen`` (paper Fig. 6).

    A clause is satisfied once ``chosen`` supplies its required number
    of detections; partially-satisfied clauses are kept *unchanged*
    (the clause always lists every detecting configuration).
    """
    needs = {
        fault: need for fault, _, need in detection_requirements(problem)
    }
    remaining = tuple(
        (fault, clause)
        for fault, clause in problem.clauses
        if len(clause & chosen) < needs[fault]
    )
    return replace(problem, clauses=remaining)


@dataclass(frozen=True)
class CoveringSolution:
    """Complete output of the §4.1 procedure."""

    problem: CoverageProblem
    essentials: FrozenSet[int]
    complementary: SumOfProducts
    xi: SumOfProducts

    @property
    def covers(self) -> List[ProductTerm]:
        """All irredundant covering configuration sets, smallest first."""
        return self.xi.sorted_terms()

    @property
    def minimal_covers(self) -> List[ProductTerm]:
        """Covers with the minimum number of configurations (§4.2)."""
        return self.xi.minimal_terms()

    def render(self, prefix: str = "C") -> str:
        essential = (
            ".".join(f"{prefix}{i}" for i in sorted(self.essentials))
            or "1"
        )
        return (
            f"xi_ess = ({essential})\n"
            f"xi_compl = {self.complementary.render(prefix)}\n"
            f"xi = {self.xi.render(prefix)}"
        )


def solve_covering(
    matrix: FaultDetectabilityMatrix,
    max_terms: int = MAX_TERMS,
) -> CoveringSolution:
    """Run the full §4.1 procedure on a detectability matrix.

    Faults detectable in no configuration are set aside (the maximum
    achievable coverage); ``max_terms`` is the Petrick expansion's
    safety valve.  n-detection covers come from the cover solvers
    (:func:`~repro.core.ndetect.ndetect_cover`), not from ξ.
    """
    problem = build_coverage_problem(matrix)
    essentials = essential_configurations(problem)
    reduced = reduce_problem(problem, essentials)
    complementary = expand_product_of_sums(
        (clause for _, clause in reduced.clauses), max_terms=max_terms
    )
    return CoveringSolution(
        problem=problem,
        essentials=essentials,
        complementary=complementary,
        xi=complementary.with_literals(essentials),
    )


# ----------------------------------------------------------------------
# Exact branch-and-bound minimum cover (for circuits where Petrick blows up)
# ----------------------------------------------------------------------

def branch_and_bound_cover(problem: CoverageProblem) -> FrozenSet[int]:
    """Exact minimum-cardinality cover of a :class:`CoverageProblem`.

    Uses the classic reduction rules (essential configurations, satisfied
    clauses) plus depth-first branch and bound on the hardest clause.
    The problem's ``n_detect`` multiplicity is honoured; ``n_detect=1``
    runs the historical code verbatim.
    """
    if any(not clause for _, clause in problem.clauses):
        raise InfeasibleCoverError("a fault has an empty covering clause")
    if problem.n_detect != 1 or problem.saturate:
        return _branch_and_bound_n(problem)

    best_cover: List[FrozenSet[int]] = []
    best_cost = [float("inf")]

    def recurse(
        clauses: Tuple[FrozenSet[int], ...], chosen: FrozenSet[int]
    ) -> None:
        # Reduction: essentials of the remaining subproblem.
        while True:
            unsatisfied = tuple(
                c for c in clauses if not (c & chosen)
            )
            forced = {
                next(iter(c)) for c in unsatisfied if len(c) == 1
            }
            if not forced:
                clauses = unsatisfied
                break
            chosen = chosen | forced
        cost = len(chosen)
        if cost >= best_cost[0]:
            return
        if not clauses:
            best_cost[0] = cost
            best_cover.clear()
            best_cover.append(chosen)
            return
        # Lower bound: at least one more configuration is needed.
        if cost + 1 >= best_cost[0]:
            return
        # Branch on the smallest clause, most-covering configs first.
        clause = min(clauses, key=len)
        coverage_count = {
            config: sum(1 for c in clauses if config in c)
            for config in clause
        }
        for config in sorted(clause, key=lambda c: -coverage_count[c]):
            recurse(clauses, chosen | {config})

    recurse(tuple(clause for _, clause in problem.clauses), frozenset())
    if not best_cover:
        raise InfeasibleCoverError("no cover found")
    return best_cover[0]


def _branch_and_bound_n(problem: CoverageProblem) -> FrozenSet[int]:
    """Exact minimum n-detection cover (the ``n_detect > 1`` path).

    The state generalises from "unsatisfied clauses" to per-clause
    deficits: a clause with ``need`` required detections and ``have``
    chosen members still needs ``need - have`` configurations from its
    unchosen members.  The reduction rule generalises accordingly — when
    a clause's unchosen members exactly fill its deficit they are all
    forced.
    """
    requirements = detection_requirements(problem)
    best_cover: List[FrozenSet[int]] = []
    best_cost = [float("inf")]

    def recurse(
        clauses: Tuple[Tuple[FrozenSet[int], int], ...],
        chosen: FrozenSet[int],
    ) -> None:
        # Reduction: clauses whose free members exactly fill the deficit
        # force all of them (the generalised essential rule).
        while True:
            open_clauses: List[Tuple[FrozenSet[int], int]] = []
            forced: Set[int] = set()
            for clause, need in clauses:
                deficit = need - len(clause & chosen)
                if deficit <= 0:
                    continue
                free = clause - chosen
                open_clauses.append((free, deficit))
                if len(free) == deficit:
                    forced.update(free)
            if not forced:
                clauses = tuple(open_clauses)
                break
            chosen = chosen | forced
        cost = len(chosen)
        if cost >= best_cost[0]:
            return
        if not clauses:
            best_cost[0] = cost
            best_cover.clear()
            best_cover.append(chosen)
            return
        # Lower bound: the deepest deficit needs that many more distinct
        # configurations.
        if cost + max(deficit for _, deficit in clauses) >= best_cost[0]:
            return
        # Branch on the tightest clause (least slack), most-covering
        # configs first.
        free, _ = min(
            clauses, key=lambda cd: (len(cd[0]) - cd[1], len(cd[0]))
        )
        coverage_count = {
            config: sum(1 for f, _ in clauses if config in f)
            for config in free
        }
        for config in sorted(free, key=lambda c: (-coverage_count[c], c)):
            recurse(clauses, chosen | {config})

    recurse(
        tuple((clause, need) for _, clause, need in requirements),
        frozenset(),
    )
    if not best_cover:
        raise InfeasibleCoverError("no cover found")
    return best_cover[0]


def greedy_cover(problem: CoverageProblem) -> FrozenSet[int]:
    """Classic greedy set-cover baseline: repeatedly pick the config
    covering the most unsatisfied faults (ties to the lowest index).

    Honours the problem's ``n_detect`` multiplicity: a clause counts as
    unsatisfied until the chosen set supplies its required number of
    detections, and an already-chosen configuration contributes nothing
    further to a clause.
    """
    if any(not clause for _, clause in problem.clauses):
        raise InfeasibleCoverError("a fault has an empty covering clause")
    deficits: List[Tuple[FrozenSet[int], int]] = [
        (clause, need) for _, clause, need in detection_requirements(problem)
    ]
    chosen: Set[int] = set()
    while True:
        counts: Dict[int, int] = {}
        for clause, deficit in deficits:
            if deficit <= 0:
                continue
            for config in clause:
                if config not in chosen:
                    counts[config] = counts.get(config, 0) + 1
        if not counts:
            break
        pick = min(
            counts, key=lambda config: (-counts[config], config)
        )
        chosen.add(pick)
        deficits = [
            (clause, deficit - (1 if pick in clause else 0))
            for clause, deficit in deficits
        ]
    return frozenset(chosen)


def verify_cover(
    matrix: FaultDetectabilityMatrix,
    configs: Sequence[object],
    n_detect: int = 1,
    saturate: bool = False,
) -> bool:
    """Independent check that ``configs`` reach maximum coverage.

    With ``n_detect > 1`` the check additionally requires every
    detectable fault to be detected by at least ``n_detect`` of the
    given configurations (clamped to the fault's detecting set when
    ``saturate=True``).  Faults with empty columns are excluded, as in
    :meth:`~repro.core.matrix.FaultDetectabilityMatrix.covers_all`.
    """
    if not matrix.covers_all(configs):
        return False
    rows = [matrix.row_of(c) for c in configs]
    selected = frozenset(matrix.config_indices[i] for i in rows)
    for fault in matrix.fault_names:
        clause = matrix.covering_configs(fault)
        if not clause:
            continue
        need = min(n_detect, len(clause)) if saturate else n_detect
        if len(clause & selected) < need:
            return False
    return True
