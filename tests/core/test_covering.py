"""Tests for the §4.1 covering procedure and the cover algorithms."""

import numpy as np
import pytest

from repro.core import (
    FaultDetectabilityMatrix,
    branch_and_bound_cover,
    build_coverage_problem,
    essential_configurations,
    greedy_cover,
    reduce_problem,
    solve_covering,
    verify_cover,
)
from repro.data import paper1998
from repro.errors import InfeasibleCoverError


@pytest.fixture
def matrix():
    return paper1998.detectability_matrix()


@pytest.fixture
def problem(matrix):
    return build_coverage_problem(matrix)


class TestBuildCoverageProblem:
    def test_clause_per_fault(self, problem):
        assert problem.n_clauses == 8
        assert problem.undetectable == ()

    def test_clause_content(self, problem):
        assert problem.clause_for("fR1") == frozenset({0, 2, 4, 6})
        assert problem.clause_for("fC1") == frozenset({2})

    def test_undetectable_fault_excluded(self):
        data = np.array([[1, 0]], dtype=bool)
        m = FaultDetectabilityMatrix(("C0",), ("fa", "fb"), data)
        p = build_coverage_problem(m)
        assert p.undetectable == ("fb",)
        assert p.n_clauses == 1

    def test_render_xi_mentions_faults(self, problem):
        text = problem.render_xi()
        assert "[fR1]" in text and "(C2)" in text


class TestEssentialsAndReduction:
    def test_essential_is_c2(self, problem):
        assert essential_configurations(problem) == frozenset({2})

    def test_no_essentials(self):
        data = np.array([[1, 1], [1, 1]], dtype=bool)
        m = FaultDetectabilityMatrix(("C0", "C1"), ("fa", "fb"), data)
        assert essential_configurations(
            build_coverage_problem(m)
        ) == frozenset()

    def test_reduction_matches_paper_fig6(self, problem):
        reduced = reduce_problem(problem, frozenset({2}))
        remaining = {fault for fault, _ in reduced.clauses}
        assert remaining == {"fR3", "fC2"}
        assert reduced.clause_for("fR3") == frozenset({1, 4, 5})
        assert reduced.clause_for("fC2") == frozenset({1, 5})


class TestSolveCovering:
    def test_paper_xi(self, matrix):
        solution = solve_covering(matrix)
        assert solution.essentials == frozenset({2})
        covers = {frozenset(t.literals) for t in solution.covers}
        assert covers == {frozenset({1, 2}), frozenset({2, 5})}

    def test_minimal_covers(self, matrix):
        solution = solve_covering(matrix)
        minimal = {
            frozenset(t.literals) for t in solution.minimal_covers
        }
        assert minimal == set(paper1998.EXPECTED_MINIMAL_COVERS)

    def test_render(self, matrix):
        text = solve_covering(matrix).render()
        assert "xi_ess = (C2)" in text
        assert "C1.C2 + C2.C5" in text

    def test_every_cover_verifies(self, matrix):
        solution = solve_covering(matrix)
        for t in solution.covers:
            assert verify_cover(matrix, sorted(t.literals))

    def test_single_config_matrix(self):
        data = np.ones((1, 4), dtype=bool)
        m = FaultDetectabilityMatrix(("C0",), tuple("abcd"), data)
        solution = solve_covering(m)
        assert {frozenset(t.literals) for t in solution.covers} == {
            frozenset({0})
        }


class TestBranchAndBound:
    def test_matches_petrick_minimum(self, problem):
        cover = branch_and_bound_cover(problem)
        assert len(cover) == 2
        assert cover in set(paper1998.EXPECTED_MINIMAL_COVERS)

    def test_empty_clause_infeasible(self):
        from repro.core import CoverageProblem

        p = CoverageProblem(
            clauses=(("f", frozenset()),),
            undetectable=(),
            all_configs=(0,),
        )
        with pytest.raises(InfeasibleCoverError):
            branch_and_bound_cover(p)

    def test_random_matrices_match_exhaustive(self):
        """B&B minimum cardinality equals brute-force enumeration."""
        from itertools import combinations

        rng = np.random.default_rng(3)
        for _ in range(10):
            data = rng.random((5, 7)) < 0.4
            data[:, ~np.any(data, axis=0)] = False  # leave empties out
            m = FaultDetectabilityMatrix(
                tuple(f"C{i}" for i in range(5)),
                tuple(f"f{j}" for j in range(7)),
                data,
            )
            p = build_coverage_problem(m)
            if not p.clauses:
                continue
            cover = branch_and_bound_cover(p)
            # exhaustive minimum
            best = None
            for size in range(1, 6):
                for combo in combinations(range(5), size):
                    if m.covers_all(list(combo)):
                        best = size
                        break
                if best:
                    break
            assert len(cover) == best
            assert m.covers_all(sorted(cover))


class TestGreedyCover:
    def test_valid_on_paper_matrix(self, matrix, problem):
        cover = greedy_cover(problem)
        assert verify_cover(matrix, sorted(cover))

    def test_deterministic(self, problem):
        assert greedy_cover(problem) == greedy_cover(problem)

    def test_greedy_can_overshoot(self):
        """A classic instance where greedy picks one more set."""
        # Universe {0..5}; optimal: rows A={0,1,2}, B={3,4,5};
        # greedy first grabs the 4-element row C={1,2,3,4}.
        data = np.array(
            [
                [1, 1, 1, 0, 0, 0],  # A
                [0, 0, 0, 1, 1, 1],  # B
                [0, 1, 1, 1, 1, 0],  # C (greedy bait)
            ],
            dtype=bool,
        )
        m = FaultDetectabilityMatrix(
            ("C0", "C1", "C2"), tuple(f"f{j}" for j in range(6)), data
        )
        p = build_coverage_problem(m)
        greedy = greedy_cover(p)
        exact = branch_and_bound_cover(p)
        assert len(exact) == 2
        assert len(greedy) == 3
