"""E-SC — scaling study on the library circuits (paper's future work).

The paper's conclusion promises validation "through consideration of more
complex analog circuits" and names the bottleneck (fault-simulation cost
of the matrix construction).  This experiment runs the complete flow —
fault simulation, covering, configuration-count optimization, partial-DFT
synthesis — on every catalog circuit (2 to 5 opamps, 4 to 32
configurations) and compares the Petrick/exact/greedy/brute-force cover
strategies.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..analysis.sweep import decade_grid
from ..circuits.catalog import BenchmarkCircuit, build_all
from ..core.baselines import (
    brute_force_strategy,
    exact_minimum_strategy,
    greedy_strategy,
)
from ..core.costs import AverageOmegaDetectability, ConfigurationCount
from ..core.covering import (
    branch_and_bound_cover,
    build_coverage_problem,
    solve_covering,
)
from ..core.mapping import substitute_opamps
from ..core.optimizer import DftOptimizer
from ..faults.simulator import SimulationSetup, simulate_faults
from ..faults.universe import deviation_faults
from ..errors import OptimizationError
from ..reporting.report import ExperimentReport
from ..reporting.tables import render_table


def analyze_circuit(
    bench: BenchmarkCircuit,
    epsilon: float = 0.10,
    deviation: float = 0.20,
    points_per_decade: int = 40,
    executor=None,
    cache=None,
    telemetry=None,
) -> dict:
    """Full DFT-optimization flow on one library circuit.

    Every catalog circuit expands within the Petrick budget of
    :func:`~repro.core.covering.solve_covering` (the 6-opamp cascade,
    63 candidate configurations, into 9,943 irredundant covers).  An
    expansion beyond it falls back to the exact branch-and-bound minimum
    cover — the same answer for the 2nd-order configuration-count
    requirement, without enumerating every irredundant cover.
    ``result["petrick_fallback"]`` records it.
    """
    from ..core.mapping import opamps_used_by

    mcc = bench.dft()
    faults = deviation_faults(bench.circuit, deviation)
    grid = decade_grid(
        bench.f0_hz, points_per_decade=points_per_decade
    )
    setup = SimulationSetup(grid=grid, epsilon=epsilon)
    dataset = simulate_faults(
        mcc, faults, setup, executor=executor, cache=cache,
        telemetry=telemetry,
    )
    matrix = dataset.detectability_matrix()
    table = dataset.omega_table()

    fallback = False
    try:
        covering = solve_covering(matrix)
        optimizer = DftOptimizer(matrix, table)
        optimizer._covering = covering
        result = optimizer.optimize(
            [ConfigurationCount(), AverageOmegaDetectability(table=table)]
        )
        xi_star = substitute_opamps(covering.xi, bench.n_opamps)
        min_opamps = (
            min(len(t) for t in xi_star.terms) if xi_star.terms else 0
        )
    except OptimizationError:
        fallback = True
        covering = None
        exact = branch_and_bound_cover(build_coverage_problem(matrix))
        from ..core.boolean_alg import SumOfProducts
        from ..core.covering import CoveringSolution, build_coverage_problem as _bcp
        from ..core.optimizer import OptimizationResult

        pseudo_covering = CoveringSolution(
            problem=_bcp(matrix),
            essentials=frozenset(),
            complementary=SumOfProducts.of_terms([exact]),
            xi=SumOfProducts.of_terms([exact]),
        )
        result = OptimizationResult(
            covering=pseudo_covering,
            stages=(),
            selected=frozenset(exact),
        )
        min_opamps = len(opamps_used_by(sorted(exact), bench.n_opamps))

    return {
        "bench": bench,
        "dataset": dataset,
        "matrix": matrix,
        "table": table,
        "covering": covering,
        "optimized": result,
        "min_opamps": min_opamps,
        "petrick_fallback": fallback,
        "strategies": {
            "brute": brute_force_strategy(matrix, bench.n_opamps, table),
            "greedy": greedy_strategy(matrix, bench.n_opamps, table),
            "exact": exact_minimum_strategy(
                matrix, bench.n_opamps, table
            ),
        },
    }


def run(
    mode: str = "simulated",
    benches: Optional[Sequence[BenchmarkCircuit]] = None,
    executor=None,
    cache=None,
) -> ExperimentReport:
    """Scaling study; ``mode`` accepted for driver uniformity.

    ``executor`` / ``cache`` run every per-circuit campaign in parallel
    and/or resumably; results are identical.
    """
    report = ExperimentReport(
        experiment_id="E-SC",
        title="Scaling study - the full flow on the circuit library",
    )
    benches = list(benches) if benches is not None else build_all()

    rows: List[list] = []
    for bench in benches:
        outcome = analyze_circuit(bench, executor=executor, cache=cache)
        matrix = outcome["matrix"]
        result = outcome["optimized"]
        greedy = outcome["strategies"]["greedy"]
        exact = outcome["strategies"]["exact"]
        rows.append(
            [
                bench.name,
                bench.n_opamps,
                matrix.n_configurations,
                matrix.n_faults,
                len(matrix.undetectable_faults()),
                f"{100 * matrix.fault_coverage(['C0']):.0f}%",
                f"{100 * matrix.fault_coverage():.0f}%",
                len(result.selected),
                exact.n_configurations,
                greedy.n_configurations,
                outcome["min_opamps"],
                outcome["dataset"].n_solves,
            ]
        )
        report.add_value(
            f"{bench.name}.n_selected", float(len(result.selected))
        )
        report.add_value(
            f"{bench.name}.exact_equals_petrick_minimum",
            float(exact.n_configurations == len(result.selected)),
        )
        report.add_value(
            f"{bench.name}.greedy_overshoot",
            float(greedy.n_configurations - exact.n_configurations),
        )

    report.add_section(
        "per-circuit flow summary",
        render_table(
            [
                "circuit",
                "opamps",
                "configs",
                "faults",
                "undet",
                "FC(C0)",
                "FC(max)",
                "petrick",
                "exact",
                "greedy",
                "minOP",
                "solves",
            ],
            rows,
        ),
    )
    return report
