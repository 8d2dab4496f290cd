"""Tolerance-engine benchmarks: cold and warm ε-calibration.

Measures Monte Carlo tolerance analysis (the inner loop of the
ε-calibration campaign) on a catalog circuit and records the timings as
JSON — in each bench's ``extra_info``, as a printed summary line, and as
a ``BENCH_tolerance.json`` artifact next to this file (machine spec and
commit hash included) that CI uploads.

Paths covered:

* ``monte_carlo`` — one stamp-program replay assembling every sample's
  ``G + jωC`` pencil, one stacked LAPACK dispatch per sample sweep;
* ``warm_cache``  — a fully cached campaign re-run (zero solves), which
  holds on any hardware.

``BENCH_SMOKE=1`` shrinks the sample count and rounds so CI can afford
the run; the correctness assertion — deviations bit-identical to the
per-sample rebuild oracle — stays strict.
"""

import json
import os
import platform
import subprocess

import numpy as np
import pytest

from repro.analysis import (
    ac_analysis,
    decade_grid,
    monte_carlo_tolerance,
    sample_factors,
)
from repro.campaign import (
    CampaignTelemetry,
    run_tolerance_campaign,
    tolerance_cache,
)
from repro.circuits import build
from repro.verify import reference_scaled_responses

#: CI smoke mode: fewer samples, single round
SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

CIRCUIT = "sallen_key"
POINTS_PER_DECADE = 6
N_SAMPLES = 50 if SMOKE else 200
ROUNDS = 1 if SMOKE else 3
SEED = 2026

RECORD = {}


@pytest.fixture(scope="module")
def workload():
    bench = build(CIRCUIT)
    grid = decade_grid(
        bench.f0_hz, 1, 1, points_per_decade=POINTS_PER_DECADE
    )
    return bench.circuit, grid


def test_bench_tolerance_monte_carlo(benchmark, workload):
    circuit, grid = workload
    analysis = benchmark.pedantic(
        monte_carlo_tolerance,
        args=(circuit, grid),
        kwargs=dict(tolerance=0.05, n_samples=N_SAMPLES, seed=SEED),
        rounds=ROUNDS,
        iterations=1,
    )
    RECORD["monte_carlo_s"] = benchmark.stats.stats.min
    benchmark.extra_info["samples"] = N_SAMPLES
    benchmark.extra_info["frequencies"] = len(grid)
    assert analysis.suggested_epsilon(95.0) > 0.0

    # Correctness everywhere: bit-identical to the per-sample oracle.
    names = [e.name for e in circuit.passives()]
    factors = sample_factors(
        np.random.default_rng(SEED), N_SAMPLES, len(names), 0.05, "uniform"
    )
    nominal = ac_analysis(circuit, grid)
    expected = np.vstack(
        [
            nominal.relative_deviation(response)
            for response in reference_scaled_responses(
                circuit, grid, names, factors
            )
        ]
    )
    assert np.array_equal(analysis.deviations, expected)


def test_bench_tolerance_warm_cache(benchmark, tmp_path):
    """A warm ε-calibration campaign re-run performs zero solves."""
    cache = tolerance_cache(tmp_path / "cache")
    kwargs = dict(
        names=[CIRCUIT],
        n_samples=N_SAMPLES,
        seed=SEED,
        points_per_decade=POINTS_PER_DECADE,
        cache=cache,
    )
    cold = run_tolerance_campaign(**kwargs)  # fill outside timed region
    RECORD["suggested_epsilon"] = cold.rows[0].suggested_epsilon

    telemetry = CampaignTelemetry()
    report = benchmark.pedantic(
        run_tolerance_campaign,
        kwargs={**kwargs, "telemetry": telemetry},
        rounds=ROUNDS,
        iterations=1,
    )
    RECORD["warm_s"] = benchmark.stats.stats.min

    counters = telemetry.snapshot()
    assert counters["cache_hits"] == counters["units_total"]
    assert counters["solves"] == 0
    assert report.n_solves == 0
    assert report.rows[0].suggested_epsilon == RECORD["suggested_epsilon"]


def _machine_spec():
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except Exception:
        commit = "unknown"
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "commit": commit,
    }


def test_bench_tolerance_record(workload):
    """Fold the measured timings into the BENCH_tolerance.json artifact."""
    required = ("monte_carlo_s", "warm_s")
    missing = [k for k in required if k not in RECORD]
    if missing:
        pytest.skip(f"benches did not run: {missing}")

    _, grid = workload
    summary = {
        "circuit": CIRCUIT,
        "samples": N_SAMPLES,
        "frequencies": len(grid),
        "seed": SEED,
        "smoke": SMOKE,
        "monte_carlo_s": round(RECORD["monte_carlo_s"], 4),
        "warm_cache_s": round(RECORD["warm_s"], 4),
        "suggested_epsilon": RECORD["suggested_epsilon"],
        "machine": _machine_spec(),
    }
    out_path = os.path.join(
        os.path.dirname(os.path.abspath(__file__)),
        "BENCH_tolerance.json",
    )
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)
        handle.write("\n")
    print()
    print("tolerance-bench:", json.dumps(summary))
