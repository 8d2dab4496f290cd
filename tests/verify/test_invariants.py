"""Metamorphic invariants: hold on real data, fire on corrupted data."""

import dataclasses

import numpy as np
import pytest

from repro.faults import simulate_faults
from repro.verify import run_invariants
from repro.verify.generators import catalog_cases
from repro.verify.invariants import (
    check_epsilon_monotonicity,
    check_exact_covers,
    check_functional_configuration,
    check_grid_refinement,
    check_impedance_scaling,
    check_matrix_table_consistency,
    check_tolerance_kernel,
    check_trajectory_oracle,
    check_transparent_configuration,
)


@pytest.fixture(scope="module")
def small_case():
    (case,) = catalog_cases(
        names=["bandpass_mfb"], points_per_decade=12
    )
    return case


@pytest.fixture(scope="module")
def small_dataset(small_case):
    return simulate_faults(
        small_case.mcc(), list(small_case.faults), small_case.setup
    )


class TestInvariantsHold:
    def test_run_invariants_clean(self, small_case, small_dataset):
        mismatches, n_checks, skipped = run_invariants(
            small_case, small_dataset
        )
        assert mismatches == []
        assert skipped == []
        assert n_checks > 0

    def test_functional_configuration(self, small_case):
        assert check_functional_configuration(small_case) == []

    def test_transparent_configuration(self, small_case):
        assert check_transparent_configuration(small_case) == []

    def test_epsilon_monotonicity(self, small_case):
        assert check_epsilon_monotonicity(small_case) == []

    def test_impedance_scaling_large_factor(
        self, small_case, small_dataset
    ):
        mismatches = check_impedance_scaling(
            small_case, small_dataset, k=100.0
        )
        assert mismatches == []

    def test_grid_refinement_triple(self, small_case):
        assert check_grid_refinement(small_case, factor=3) == []

    def test_tolerance_kernel_equivalence(self, small_case):
        """Monte Carlo and corner analyses are bit-identical to the
        per-sample rebuild oracle for the same seed."""
        assert check_tolerance_kernel(small_case) == []


class TestInvariantsFire:
    def test_consistency_catches_corrupt_mask(
        self, small_case, small_dataset
    ):
        pair = tuple(np.argwhere(small_dataset.detectable)[0])
        masks = small_dataset.masks.copy()
        masks[pair] = False
        corrupt = dataclasses.replace(small_dataset, masks=masks)
        mismatches = check_matrix_table_consistency(
            small_case, corrupt
        )
        assert mismatches
        assert (
            mismatches[0].check == "invariant-matrix-consistency"
        )

    def test_consistency_catches_corrupt_verdict(
        self, small_case, small_dataset
    ):
        pair = tuple(np.argwhere(small_dataset.detectable)[0])
        corrupt = dataclasses.replace(small_dataset)
        verdicts = corrupt.detectable.copy()
        verdicts[pair] = False
        corrupt.detectable = verdicts
        mismatches = check_matrix_table_consistency(
            small_case, corrupt
        )
        assert mismatches


    def test_trajectory_oracle_catches_corrupt_match(
        self, small_case, monkeypatch
    ):
        """A matcher that differs from ``reference_match`` in one field
        is reported, naming the check."""
        import repro.diagnosis as diagnosis

        real = diagnosis.match_response

        def corrupted(*args, **kwargs):
            found = real(*args, **kwargs)
            return dataclasses.replace(found, fault_free=not found.fault_free)

        monkeypatch.setattr(diagnosis, "match_response", corrupted)
        mismatches = check_trajectory_oracle(small_case)
        assert mismatches
        assert {m.check for m in mismatches} == {
            "invariant-trajectory-matcher"
        }

    def test_exact_cover_catches_a_larger_cover(
        self, small_case, small_dataset, monkeypatch
    ):
        """A valid cover one configuration above the MILP optimum is
        reported, naming the case and n."""
        import repro.core.covering as covering

        real = covering.branch_and_bound_cover

        def larger(problem):
            cover = real(problem)
            if problem.n_detect != 1:
                return cover
            return cover | {min(set(problem.all_configs) - cover)}

        monkeypatch.setattr(covering, "branch_and_bound_cover", larger)
        mismatches = check_exact_covers(small_case, small_dataset)
        assert [(m.check, m.circuit, m.config) for m in mismatches] == [
            ("invariant-exact-cover", small_case.name, "n=1")
        ]
        assert mismatches[0].error == 1.0
        assert "MILP optimum" in mismatches[0].detail


class TestNdetectInvariants:
    def test_reduction_holds(self, small_case, small_dataset):
        from repro.verify.invariants import check_ndetect_reduction

        assert check_ndetect_reduction(small_case, small_dataset) == []

    def test_supersets_hold(self, small_case, small_dataset):
        from repro.verify.invariants import check_ndetect_supersets

        assert check_ndetect_supersets(small_case, small_dataset) == []

    def test_counted_in_run_invariants(self, small_case, small_dataset):
        """The exact-cover and the two n-detect invariants participate
        in the check count."""
        from repro.verify.invariants import run_invariants

        _, n_checks, _ = run_invariants(small_case, small_dataset)
        base = (
            2 + 3 + 2 + 2
            + 1  # exact covers == MILP optimum
            + 2  # n-detect: n=1 reduction + superset ladder
            + 2  # tolerance == per-sample oracle
            + 1  # trajectory == fault simulator
            + 1  # trajectory matcher == reference_match
            + 2 * len(small_dataset.configs)
            * len(small_dataset.fault_labels)
        )
        assert n_checks == base

    def test_over_cap_expansion_is_skipped_not_raised(
        self, small_case, small_dataset, monkeypatch
    ):
        """A Petrick expansion beyond the cap is a skipped comparison —
        reported, neither a pass nor a mismatch — not an exception."""
        from repro.verify import OracleReport, Skipped, invariants
        from repro.verify.oracle import CaseOutcome

        monkeypatch.setattr(invariants, "PETRICK_TERMS", 1)
        skipped = invariants.check_exact_covers(small_case, small_dataset)
        assert [(s.check, s.config) for s in skipped] == [
            ("invariant-exact-cover", "n=1"),
        ]
        assert all(isinstance(s, Skipped) for s in skipped)
        report = OracleReport(
            outcomes=[
                CaseOutcome(
                    case=small_case, n_checks=1, mismatches=[],
                    skipped=skipped,
                )
            ]
        )
        assert report.passed
        assert report.to_dict()["n_skipped"] == 1
        assert "1 skipped" in report.summary()
