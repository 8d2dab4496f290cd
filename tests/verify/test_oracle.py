"""Differential-oracle behaviour, including the injected-mismatch drill."""

import dataclasses
import json

import numpy as np

import repro.verify.oracle as oracle_module
from repro.verify import (
    build_random_case,
    catalog_cases,
    check_case,
    run_verification,
)


class TestCheckCase:
    def test_catalog_case_passes(self):
        (case,) = catalog_cases(
            names=["sallen_key"], points_per_decade=12
        )
        outcome = check_case(case, invariants=False)
        assert outcome.passed
        assert outcome.n_checks > 0

    def test_random_case_passes_with_invariants(self):
        outcome = check_case(build_random_case(424242))
        assert outcome.passed


class TestRunVerification:
    def test_report_shape_and_json(self):
        report = run_verification(
            circuits=["bandpass_mfb"],
            n_random=2,
            seed=11,
            invariants=False,
        )
        assert report.passed
        assert report.n_cases == 3
        assert report.master_seed == 11
        payload = json.loads(report.to_json())
        assert payload["passed"] is True
        assert payload["n_cases"] == 3
        assert len(payload["cases"]) == 3
        seeds = [c["seed"] for c in payload["cases"]]
        assert seeds[0] is None  # catalog case
        assert all(s is not None for s in seeds[1:])  # random cases

    def test_empty_circuit_list_skips_catalog(self):
        report = run_verification(
            circuits=[], n_random=1, seed=3, invariants=False
        )
        assert report.n_cases == 1

    def test_summary_states_verdict(self):
        report = run_verification(
            circuits=["sallen_key"], invariants=False
        )
        assert report.summary().startswith("verify: PASS")


class TestInjectedMismatch:
    """A corrupted engine must be caught with a full replay recipe."""

    def test_corrupted_fast_engine_is_reported(self, monkeypatch):
        real_fast = oracle_module.simulate_faults

        def corrupted(mcc, faults, setup, **kwargs):
            dataset = real_fast(mcc, faults, setup, **kwargs)
            i = int(np.argmin(dataset.config_indices))
            j = dataset.fault_labels.index(min(dataset.fault_labels))
            masks = dataset.masks.copy()
            # flip the pair's Definition 1 verdict
            masks[i, j] = not dataset.detectable[i, j]
            peaks = dataset.max_deviation.copy()
            peaks[i, j] += 5.0
            return dataclasses.replace(
                dataset, masks=masks, max_deviation=peaks
            )

        monkeypatch.setattr(oracle_module, "simulate_faults", corrupted)
        report = run_verification(
            circuits=[], n_random=1, seed=13, invariants=False
        )
        assert not report.passed

        payload = json.loads(report.to_json())
        assert payload["passed"] is False
        assert payload["mismatches"]
        mismatch = next(
            m for m in payload["mismatches"] if m["fault"]
        )
        # The record names circuit, configuration, fault, worst
        # frequency and the seed that replays the case exactly.
        assert mismatch["circuit"]
        assert mismatch["config"].startswith("C")
        assert mismatch["fault"]
        assert mismatch["frequency_hz"] is not None
        assert mismatch["seed"] is not None
        replay = build_random_case(mismatch["seed"])
        assert replay.name == mismatch["circuit"]
