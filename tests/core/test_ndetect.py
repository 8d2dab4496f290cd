"""Tests for n-detection covers and the test-set-quality module."""

import itertools
import json

import numpy as np
import pytest

from repro.analysis import decade_grid
from repro.circuits import build
from repro.core import (
    FaultDetectabilityMatrix,
    branch_and_bound_cover,
    build_coverage_problem,
    detection_counts,
    detection_requirements,
    essential_configurations,
    evaluate_cover,
    greedy_cover,
    max_feasible_n,
    ndetect_cover,
    ndetect_sweep,
    pareto_points,
    render_sweep,
    robustness_margins,
    solve_covering,
    verify_cover,
)
from repro.core.ndetect import calibrate_noise_floor
from repro.data import paper1998
from repro.dft import apply_multiconfiguration
from repro.errors import (
    InfeasibleCoverError,
    InsufficientDetectionsError,
    OptimizationError,
)
from repro.faults import SimulationSetup, deviation_faults, simulate_faults


@pytest.fixture
def matrix():
    return paper1998.detectability_matrix()


@pytest.fixture(scope="module")
def mfb_dataset():
    """A fast bandpass_mfb campaign — every fault detectable twice."""
    bench = build("bandpass_mfb")
    mcc = apply_multiconfiguration(bench.circuit)
    faults = deviation_faults(bench.circuit, 0.20)
    grid = decade_grid(bench.f0_hz, 2, 2, points_per_decade=12)
    setup = SimulationSetup(grid=grid, epsilon=0.10)
    return simulate_faults(mcc, faults, setup)


def _random_matrix(rng, n_configs, n_faults, min_ones):
    """A random matrix whose every fault has >= min_ones detections."""
    data = rng.random((n_configs, n_faults)) < 0.45
    for j in range(n_faults):
        short = min_ones - int(data[:, j].sum())
        if short > 0:
            zeros = np.flatnonzero(~data[:, j])
            data[rng.choice(zeros, size=short, replace=False), j] = True
    return FaultDetectabilityMatrix(
        tuple(f"C{i}" for i in range(n_configs)),
        tuple(f"f{j}" for j in range(n_faults)),
        data,
    )


def _exhaustive_minimum(matrix, n_detect):
    indices = list(matrix.config_indices)
    for size in range(1, len(indices) + 1):
        for combo in itertools.combinations(indices, size):
            if verify_cover(matrix, list(combo), n_detect=n_detect):
                return size
    raise AssertionError("no cover exists at all")


class TestTypedError:
    def test_error_names_the_fault(self, matrix):
        # fC1 is detected only by C2 in the paper matrix
        with pytest.raises(InsufficientDetectionsError) as excinfo:
            solve_covering(matrix, n_detect=2)
        err = excinfo.value
        assert err.fault == "fC1"
        assert err.required == 2
        assert err.available == 1
        assert "fC1" in str(err)

    def test_error_is_an_infeasible_cover_error(self, matrix):
        problem = build_coverage_problem(matrix, n_detect=3)
        with pytest.raises(InfeasibleCoverError):
            detection_requirements(problem)
        # a feasible multiplicity yields one requirement per clause
        feasible = build_coverage_problem(matrix, n_detect=1)
        assert len(detection_requirements(feasible)) == feasible.n_clauses

    def test_solvers_raise_too(self, matrix):
        for solver in (branch_and_bound_cover, greedy_cover):
            problem = build_coverage_problem(
                matrix.restricted([0, 2]), n_detect=2
            )
            with pytest.raises(InsufficientDetectionsError):
                solver(problem)

    def test_saturate_clamps_instead(self, matrix):
        solution = solve_covering(matrix, n_detect=2, saturate=True)
        assert solution.covers  # best-effort cover exists
        for term in solution.covers:
            assert verify_cover(
                matrix, sorted(term.literals), n_detect=2, saturate=True
            )

    def test_n_detect_must_be_positive(self, matrix):
        with pytest.raises(OptimizationError):
            build_coverage_problem(matrix, n_detect=0)


class TestNOneReducesToLegacy:
    def test_solution_bit_identical(self, matrix):
        legacy = solve_covering(matrix)
        general = solve_covering(matrix, n_detect=1)
        assert legacy.essentials == general.essentials
        assert legacy.xi == general.xi
        assert legacy.covers == general.covers

    def test_forced_general_path_matches(self, matrix):
        # saturate=True forces the generalized Petrick machinery; at
        # n=1 the requirements coincide, so the covers must too.
        legacy = solve_covering(matrix)
        general = solve_covering(matrix, n_detect=1, saturate=True)
        assert legacy.essentials == general.essentials
        assert sorted(
            frozenset(t.literals) for t in legacy.covers
        ) == sorted(frozenset(t.literals) for t in general.covers)

    def test_solvers_bit_identical(self, matrix):
        legacy = build_coverage_problem(matrix)
        general = build_coverage_problem(matrix, n_detect=1)
        assert branch_and_bound_cover(legacy) == branch_and_bound_cover(
            general
        )
        assert greedy_cover(legacy) == greedy_cover(general)


class TestSolverAgreement:
    @pytest.mark.parametrize("n_detect", [1, 2, 3])
    def test_exact_vs_greedy_on_seeded_matrices(self, n_detect):
        rng = np.random.default_rng(1998 + n_detect)
        for _ in range(8):
            m = _random_matrix(rng, 6, 5, min_ones=n_detect)
            problem = build_coverage_problem(m, n_detect=n_detect)
            exact = branch_and_bound_cover(problem)
            greedy = greedy_cover(problem)
            assert verify_cover(m, sorted(exact), n_detect=n_detect)
            assert verify_cover(m, sorted(greedy), n_detect=n_detect)
            assert len(exact) <= len(greedy)
            assert len(exact) == _exhaustive_minimum(m, n_detect)

    @pytest.mark.parametrize("n_detect", [2, 3])
    def test_essentials_forced_clauses(self, n_detect):
        rng = np.random.default_rng(7 * n_detect)
        m = _random_matrix(rng, 6, 5, min_ones=n_detect)
        problem = build_coverage_problem(m, n_detect=n_detect)
        essentials = essential_configurations(problem)
        # every clause of exactly n configurations is fully forced
        for fault, clause in problem.clauses:
            if len(clause) == n_detect:
                assert clause <= essentials

    def test_petrick_terms_are_valid_covers(self):
        rng = np.random.default_rng(42)
        m = _random_matrix(rng, 6, 5, min_ones=2)
        solution = solve_covering(m, n_detect=2)
        assert solution.covers
        for term in solution.covers:
            assert verify_cover(m, sorted(term.literals), n_detect=2)


class TestSupersets:
    def test_n_cover_verifies_at_lower_n(self):
        rng = np.random.default_rng(13)
        m = _random_matrix(rng, 7, 6, min_ones=3)
        for n in (2, 3):
            cover = ndetect_cover(m, n_detect=n, solver="exact")
            assert verify_cover(m, sorted(cover), n_detect=n - 1)

    def test_terms_contain_lower_terms(self):
        rng = np.random.default_rng(13)
        m = _random_matrix(rng, 7, 6, min_ones=3)
        for n in (2, 3):
            finer = solve_covering(m, n_detect=n)
            coarser = solve_covering(m, n_detect=n - 1)
            coarse = [frozenset(t.literals) for t in coarser.covers]
            for term in finer.covers:
                literals = frozenset(term.literals)
                assert any(base <= literals for base in coarse)


class TestQualityMetrics:
    def test_detection_counts(self, matrix):
        counts = detection_counts(matrix, [2, 4])
        assert counts["fC1"] == 1
        assert counts["fR5"] == 2
        assert counts["fC2"] == 0

    def test_max_feasible_n(self, matrix):
        assert max_feasible_n(matrix) == 1  # fC1 has a single detection
        empty = FaultDetectabilityMatrix(
            ("C0",), ("fa",), np.zeros((1, 1), dtype=bool)
        )
        assert max_feasible_n(empty) == 0

    def test_margins_only_for_detectable_entries(self, mfb_dataset):
        margins = robustness_margins(mfb_dataset)
        configs = {config.index: config for config in mfb_dataset.configs}
        for (index, fault), margin in margins.items():
            result = mfb_dataset.result(configs[index], fault)
            assert result.detectable
            assert margin == pytest.approx(
                result.max_deviation - mfb_dataset.setup.epsilon
            )

    def test_noise_floor_shifts_margins(self, mfb_dataset):
        base = robustness_margins(mfb_dataset)
        shifted = robustness_margins(mfb_dataset, noise_floor=0.05)
        for key in base:
            assert shifted[key] == pytest.approx(base[key] - 0.05)

    def test_evaluate_cover_report(self, mfb_dataset):
        matrix = mfb_dataset.detectability_matrix()
        cover = sorted(ndetect_cover(matrix, n_detect=1))
        report = evaluate_cover(mfb_dataset, cover, n_detect=1)
        assert report.configs == tuple(cover)
        assert report.worst_case_margin == min(
            q.margin_best for q in report.per_fault
        )
        assert 0.0 <= report.worst_case_omega <= 1.0
        assert report.quality_for(report.per_fault[0].fault)
        assert "worst-case margin" in report.render()

    def test_missed_fault_counts_as_fragile(self, mfb_dataset):
        # an empty cover misses every detectable fault
        report = evaluate_cover(mfb_dataset, [])
        assert report.fragile_faults
        assert report.worst_case_margin < 0

    def test_more_detections_never_hurt_margin(self, mfb_dataset):
        """The acceptance example: the n=2 cover's worst-case margin
        strictly exceeds the n=1 cover's on this catalog circuit."""
        matrix = mfb_dataset.detectability_matrix()
        r1 = evaluate_cover(
            mfb_dataset, sorted(ndetect_cover(matrix, 1)), n_detect=1
        )
        r2 = evaluate_cover(
            mfb_dataset, sorted(ndetect_cover(matrix, 2)), n_detect=2
        )
        assert r2.worst_case_margin > r1.worst_case_margin


class TestSweep:
    def test_sweep_defaults_to_feasible_range(self, mfb_dataset):
        points = ndetect_sweep(mfb_dataset)
        assert [p.n_detect for p in points] == [1, 2]
        assert all(p.fault_coverage == points[0].fault_coverage
                   for p in points)

    def test_sweep_costs_monotone(self, mfb_dataset):
        points = ndetect_sweep(mfb_dataset)
        sizes = [p.n_configurations for p in points]
        assert sizes == sorted(sizes)

    def test_pareto_front_nonempty(self, mfb_dataset):
        points = ndetect_sweep(mfb_dataset)
        front = pareto_points(points)
        assert front
        # the cheapest cover is never dominated
        assert min(p.n_configurations for p in points) in {
            p.n_configurations for p in front
        }

    def test_render_marks_front(self, mfb_dataset):
        text = render_sweep(ndetect_sweep(mfb_dataset))
        assert "worst-margin" in text
        assert "*" in text

    def test_greedy_solver(self, mfb_dataset):
        points = ndetect_sweep(mfb_dataset, solver="greedy")
        matrix = mfb_dataset.detectability_matrix()
        for p in points:
            assert verify_cover(
                matrix, list(p.configs), n_detect=p.n_detect
            )

    def test_bad_solver_and_bad_n(self, mfb_dataset):
        with pytest.raises(OptimizationError):
            ndetect_sweep(mfb_dataset, solver="magic")
        with pytest.raises(OptimizationError):
            ndetect_sweep(mfb_dataset, n_values=[0])


class TestCalibration:
    def test_montecarlo_rejects_band(self):
        bench = build("bandpass_mfb")
        grid = decade_grid(bench.f0_hz, 1, 1, points_per_decade=5)
        with pytest.raises(OptimizationError):
            calibrate_noise_floor(
                bench.circuit, grid, method="montecarlo",
                criterion="band",
            )

    def test_unknown_method_and_criterion(self):
        bench = build("bandpass_mfb")
        grid = decade_grid(bench.f0_hz, 1, 1, points_per_decade=5)
        with pytest.raises(OptimizationError):
            calibrate_noise_floor(bench.circuit, grid, method="magic")
        with pytest.raises(OptimizationError):
            calibrate_noise_floor(
                bench.circuit, grid, criterion="sideways"
            )

    def test_corner_floor_positive(self):
        bench = build("bandpass_mfb")
        grid = decade_grid(bench.f0_hz, 1, 1, points_per_decade=5)
        floor = calibrate_noise_floor(
            bench.circuit, grid, tolerance=0.05, method="corners"
        )
        assert floor > 0.0
