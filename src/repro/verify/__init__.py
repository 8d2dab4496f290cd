"""Differential oracle & property-based verification subsystem.

The simulation stack has four independent roads to the same number —
the certified Sherman–Morrison fault simulator
(:mod:`repro.faults.simulator`), its scalar per-fault reference
``reference_dataset``, a direct unbatched MNA solve
(:mod:`repro.analysis.mna`) and the rational transfer-function fit
(:mod:`repro.analysis.transfer`).  This package
cross-checks them against each other and against the paper's definitions
on randomized circuits, faults, configurations and frequency grids:

* :mod:`repro.verify.generators` — seedable random generators and
  Hypothesis strategies for verification cases;
* :mod:`repro.verify.oracle` — the differential oracle with structured,
  reproducible mismatch reports;
* :mod:`repro.verify.invariants` — metamorphic properties (C_0 ≡
  functional, transparency, ε-monotonicity, impedance-scaling and
  grid-refinement invariance, matrix/table consistency, cover-strategy
  ordering, n-detection covers, and the zero-tolerance comparisons of
  the production fault, tolerance and trajectory paths against the
  scalar oracles ``reference_dataset`` and
  ``reference_scaled_responses``, and of the trajectory matcher
  against the per-point ``reference_match``); it also holds
  ``reference_absorb``, the all-pairs absorption the covering
  algebra's tests compare against.

``python -m repro verify`` drives the whole thing from the shell and is
the standing correctness gate for every optimization PR.
"""

from .generators import (
    VerifyCase,
    build_ill_conditioned_case,
    build_random_case,
    catalog_cases,
    perturbed_circuit,
    random_cases,
    random_fault_universe,
    random_grid,
)
from .invariants import (
    check_cover_strategies,
    check_epsilon_monotonicity,
    check_functional_configuration,
    check_grid_refinement,
    check_impedance_scaling,
    check_matrix_table_consistency,
    check_tolerance_kernel,
    check_trajectory_oracle,
    check_transparent_configuration,
    reference_absorb,
    reference_dataset,
    reference_match,
    reference_scaled_responses,
    run_invariants,
)
from .oracle import (
    Mismatch,
    OracleReport,
    Skipped,
    Tolerances,
    check_case,
    run_verification,
)

__all__ = [
    "Mismatch",
    "OracleReport",
    "Skipped",
    "Tolerances",
    "VerifyCase",
    "build_ill_conditioned_case",
    "build_random_case",
    "catalog_cases",
    "check_case",
    "check_cover_strategies",
    "check_epsilon_monotonicity",
    "check_functional_configuration",
    "check_grid_refinement",
    "check_impedance_scaling",
    "check_matrix_table_consistency",
    "check_tolerance_kernel",
    "check_trajectory_oracle",
    "check_transparent_configuration",
    "perturbed_circuit",
    "random_cases",
    "random_fault_universe",
    "random_grid",
    "reference_absorb",
    "reference_dataset",
    "reference_match",
    "reference_scaled_responses",
    "run_invariants",
    "run_verification",
]
