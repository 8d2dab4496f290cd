"""E-AB — ablation benches over the reproduction's design choices.

Each ablation re-runs the full campaign under a varied parameter, so
these benches are executed with single rounds.
"""

import pytest

from repro.experiments import exp_ablations


def test_bench_ablation_epsilon(benchmark):
    report = benchmark.pedantic(
        exp_ablations.epsilon_sweep, rounds=1, iterations=1
    )
    print()
    print(report.render())
    # Coverage is antitone in epsilon; at 5% everything is detectable.
    assert report.values["fc_max@eps=0.05"] == 1.0
    assert (
        report.values["fc_max@eps=0.05"]
        >= report.values["fc_max@eps=0.1"]
        >= report.values["fc_max@eps=0.2"]
    )


def test_bench_ablation_deviation(benchmark):
    report = benchmark.pedantic(
        exp_ablations.deviation_sweep, rounds=1, iterations=1
    )
    print()
    print(report.render())
    # Bigger faults are easier to catch.
    assert (
        report.values["fc_max@dev=0.5"]
        >= report.values["fc_max@dev=0.2"]
        >= report.values["fc_max@dev=0.1"]
    )


def test_bench_ablation_reference_region(benchmark):
    report = benchmark.pedantic(
        exp_ablations.reference_region_sweep, rounds=1, iterations=1
    )
    print()
    print(report.render())
    assert report.values["avg_omega_dft@half=1"] > 0.0


def test_bench_ablation_opamp_model(benchmark):
    report = benchmark.pedantic(
        exp_ablations.opamp_model_ablation, rounds=1, iterations=1
    )
    print()
    print(report.render())
    # A 1 MHz GBW (600x f0) leaves the coverage conclusions intact.
    assert report.values["fc_max@gbw=1e+06"] == pytest.approx(
        0.875, abs=0.13
    )


def test_bench_ablation_criterion(benchmark):
    report = benchmark.pedantic(
        exp_ablations.criterion_ablation, rounds=1, iterations=1
    )
    print()
    print(report.render())
    # The point-wise relative criterion floods C0 with detections; the
    # band criterion reproduces the paper's sparse initial pattern.
    assert report.values["fc_c0_band"] == pytest.approx(0.25)
    assert report.values["fc_c0_relative"] > report.values["fc_c0_band"]


def test_bench_ablation_corners(benchmark):
    report = benchmark.pedantic(
        exp_ablations.corner_vs_montecarlo, rounds=1, iterations=1
    )
    print()
    print(report.render())
    # The guaranteed floor grows with tolerance, and the paper's eps=10%
    # clears the 2%-component floor but not the 5% one, both in the band
    # normalisation the flow applies that eps under.
    assert (
        report.values["corner_floor@tol=0.01"]
        < report.values["corner_floor@tol=0.02"]
        < report.values["corner_floor@tol=0.05"]
    )
    assert report.values["band_floor@tol=0.02"] < 0.10
    assert report.values["band_floor@tol=0.05"] > 0.10
    # Vertices bound the sampled interior.
    assert (
        report.values["corner_floor@2pct"]
        >= report.values["mc_p95@2pct"]
    )


def test_bench_ablation_double_faults(benchmark):
    report = benchmark.pedantic(
        exp_ablations.double_fault_study, rounds=1, iterations=1
    )
    print()
    print(report.render())
    # 28 pairs; the inverter-ratio pair fR5&fR6 masks perfectly.
    assert report.values["n_pairs"] == 28.0
    assert report.values["pair_coverage"] > 0.9
    text = report.render()
    assert "fR5+20%+fR6+20%" in text
