"""Integration tests: the complete flow across modules.

Each test exercises circuit construction → DFT instrumentation → fault
simulation → covering → optimization as one pipeline, on several library
circuits, and checks cross-module invariants that no unit test covers.
"""

import numpy as np
import pytest

from repro import quick_optimize
from repro.analysis import decade_grid
from repro.circuits import build, build_all
from repro.core import (
    AverageOmegaDetectability,
    ConfigurationCount,
    DftOptimizer,
    build_coverage_problem,
    greedy_cover,
    select_test_frequencies,
    solve_covering,
    verify_cover,
)
from repro.experiments.exp_scaling import analyze_circuit
from repro.faults import SimulationSetup, deviation_faults, simulate_faults
from tests.conftest import bare_row


class TestFullFlowBiquad:
    def test_quick_optimize(self, biquad_bench):
        result = quick_optimize(biquad_bench, points_per_decade=15)
        assert len(result.selected) >= 1
        assert result.covering.xi.terms

    def test_selected_configs_cover(self, paper_dataset):
        matrix = paper_dataset.detectability_matrix()
        table = paper_dataset.omega_table()
        optimizer = DftOptimizer(matrix, table)
        result = optimizer.optimize(
            [ConfigurationCount(), AverageOmegaDetectability(table=table)]
        )
        assert matrix.covers_all(sorted(result.selected))

    def test_optimized_needs_fewer_configs_than_brute(self, paper_dataset):
        matrix = paper_dataset.detectability_matrix()
        optimizer = DftOptimizer(matrix)
        result = optimizer.optimize([ConfigurationCount()])
        assert len(result.selected) < matrix.n_configurations

    def test_schedule_for_optimized_configs(self, paper_dataset):
        matrix = paper_dataset.detectability_matrix()
        optimizer = DftOptimizer(matrix)
        result = optimizer.optimize([ConfigurationCount()])
        chosen = [
            c
            for c in paper_dataset.configs
            if c.index in result.selected
        ]
        schedule = select_test_frequencies(
            paper_dataset, configs=chosen
        )
        covered = set(schedule.covered_faults)
        detectable = {
            f
            for f in paper_dataset.fault_labels
            if matrix.covering_configs(f) & result.selected
        }
        assert covered == detectable


class TestFullFlowLibrary:
    @pytest.mark.parametrize(
        "name", ["sallen_key", "state_variable", "bandpass_mfb"]
    )
    def test_flow_runs_on_library_circuit(self, name):
        outcome = analyze_circuit(
            build(name), points_per_decade=12
        )
        matrix = outcome["matrix"]
        result = outcome["optimized"]
        assert matrix.covers_all(sorted(result.selected))
        # exact B&B agrees with the Petrick minimum
        exact = outcome["strategies"]["exact"]
        assert exact.n_configurations == len(
            result.stages[0].survivors[0]
        ) or exact.n_configurations <= len(result.selected)

    def test_dft_never_reduces_coverage(self):
        """FC(all configs) >= FC(C0) on every library circuit."""
        for bench in build_all():
            mcc = bench.dft()
            faults = deviation_faults(bench.circuit, 0.20)
            grid = decade_grid(bench.f0_hz, 2, 2, points_per_decade=10)
            dataset = simulate_faults(
                mcc, faults, SimulationSetup(grid=grid)
            )
            matrix = dataset.detectability_matrix()
            assert matrix.fault_coverage() >= matrix.fault_coverage(
                ["C0"]
            ), bench.name

    def test_best_case_omega_monotone_in_config_set(self, paper_dataset):
        table = paper_dataset.omega_table()
        small = table.average_rate([0, 1])
        large = table.average_rate([0, 1, 2, 3])
        assert large >= small

    def test_greedy_cover_valid_on_all_circuits(self):
        for bench in build_all():
            mcc = bench.dft()
            faults = deviation_faults(bench.circuit, 0.20)
            grid = decade_grid(bench.f0_hz, 2, 2, points_per_decade=8)
            dataset = simulate_faults(
                mcc, faults, SimulationSetup(grid=grid)
            )
            matrix = dataset.detectability_matrix()
            problem = build_coverage_problem(matrix)
            if not problem.clauses:
                continue
            cover = greedy_cover(problem)
            assert verify_cover(matrix, sorted(cover)), bench.name


class TestCrossModuleInvariants:
    def test_xi_terms_equal_minimal_hitting_sets(self, paper_dataset):
        """Every ξ term is a minimal hitting set of the clause family."""
        matrix = paper_dataset.detectability_matrix()
        problem = build_coverage_problem(matrix)
        solution = solve_covering(matrix)
        clauses = [set(c) for _, c in problem.clauses]
        for term in solution.covers:
            literals = set(term.literals)
            assert all(literals & c for c in clauses)
            for literal in literals:
                smaller = literals - {literal}
                assert not all(smaller & c for c in clauses)

    def test_matrix_row_c0_equals_single_config_sim(self, paper_scenario):
        dataset = paper_scenario.dataset()
        labels, row = bare_row(
            paper_scenario.circuit(),
            paper_scenario.faults(),
            paper_scenario.setup(),
        )
        full_row = {
            f: dataset.omega_table().value("C0", f)
            for f in dataset.fault_labels
        }
        single_row = dict(zip(labels, row.omega_detectability))
        for fault in full_row:
            assert full_row[fault] == pytest.approx(single_row[fault])

    def test_netlist_roundtrip_preserves_detectability(self, paper_scenario):
        """Simulating a re-parsed netlist gives the same C0 row."""
        from repro.circuit import parse_netlist

        original = paper_scenario.circuit()
        recovered = parse_netlist(original.netlist())
        setup = paper_scenario.setup()
        _, row_a = bare_row(original, paper_scenario.faults(), setup)
        _, row_b = bare_row(recovered, paper_scenario.faults(), setup)
        assert np.allclose(
            row_a.omega_detectability, row_b.omega_detectability
        )
