"""Campaign engine benchmarks: serial vs parallel vs cache vs engines.

Measures the execution paths on the biggest library circuit (the
5-opamp FLF filter: 31 configurations x 17 faults) and records the
timings as JSON — in each bench's ``extra_info``, as a printed summary
line, and as a ``BENCH_campaign.json`` artifact next to this file
(machine spec and commit hash included) that CI uploads.

Paths covered:

* ``serial``        — the per-configuration path: one standard work
  unit per configuration, one stacked LAPACK dispatch per sweep;
* ``parallel``      — the same units fanned over a process pool;
* ``warm_cache``    — a fully cached re-run (zero AC solves);
* ``fast``          — the Sherman–Morrison engine: one multi-RHS sweep
  per configuration; the source of the headline speedup (the
  acceptance floor is 3x over ``serial``).

The parallel executor is adaptive: it fans out in worker-process
batches where cores exist and runs in-process on a single effective
core, so it must never lose to the serial path anywhere.  The guard
measures interleaved serial/parallel pairs (immune to machine drift)
and holds the best pair's ratio to >= 1.0 in full mode; where real
fan-out is possible (>= 2 effective jobs) the floor rises to 1.5x.
The cache-hit speedup holds everywhere: a warm re-run performs zero
AC solves.

``BENCH_SMOKE=1`` shrinks the grid and the rounds so CI can afford the
run; speedup *assertions* that need a meaty workload to be stable are
relaxed in smoke mode, while every correctness assertion (bit-identical
tables across all paths) stays strict.
"""

import json
import os
import platform
import subprocess
import time

import numpy as np
import pytest

from repro.analysis import decade_grid
from repro.campaign import (
    CampaignTelemetry,
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
    execute_plan,
    plan_campaign,
)
from repro.circuits import build
from repro.faults import (
    SimulationSetup,
    deviation_faults,
    simulate_faults_fast,
)

#: CI smoke mode: small grid, single round, relaxed speedup floors
SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

POINTS_PER_DECADE = 10 if SMOKE else 30
ROUNDS = 1 if SMOKE else 3
#: untimed warm-up rounds ahead of the serial/parallel pair — their
#: ratio is asserted on, so cold-start drift must not bias either side
WARMUP = 0 if SMOKE else 1

RECORD = {}


@pytest.fixture(scope="module")
def flf():
    bench = build("leapfrog")
    mcc = bench.dft()
    faults = deviation_faults(bench.circuit, 0.20)
    grid = decade_grid(
        bench.f0_hz, 2, 2, points_per_decade=POINTS_PER_DECADE
    )
    return mcc, faults, SimulationSetup(grid=grid)


@pytest.fixture(scope="module")
def flf_plan(flf):
    mcc, faults, setup = flf
    return plan_campaign(mcc, faults, setup)


def _tables(dataset):
    return (
        dataset.detectability_matrix().data,
        dataset.omega_table().data,
    )


def _identical(tables_a, tables_b):
    return all(
        np.array_equal(a, b) for a, b in zip(tables_a, tables_b)
    )


def test_bench_campaign_serial(benchmark, flf_plan):
    dataset = benchmark.pedantic(
        execute_plan,
        args=(flf_plan,),
        kwargs={"executor": SerialExecutor()},
        rounds=ROUNDS,
        iterations=1,
        warmup_rounds=WARMUP,
    )
    RECORD["serial_s"] = benchmark.stats.stats.min
    RECORD["tables"] = _tables(dataset)
    benchmark.extra_info["units"] = flf_plan.n_units
    assert dataset.n_solves == flf_plan.n_configs * (
        flf_plan.n_faults + 1
    )


def test_bench_campaign_parallel(benchmark, flf_plan):
    executor = ParallelExecutor(jobs=4)
    dataset = benchmark.pedantic(
        execute_plan,
        args=(flf_plan,),
        kwargs={"executor": executor},
        rounds=ROUNDS,
        iterations=1,
        warmup_rounds=WARMUP,
    )
    RECORD["parallel_s"] = benchmark.stats.stats.min
    benchmark.extra_info["jobs"] = executor.jobs
    benchmark.extra_info["effective_jobs"] = executor.effective_jobs()
    benchmark.extra_info["cpus"] = os.cpu_count()

    # Correctness everywhere: bit-identical to the serial path.
    assert _identical(_tables(dataset), RECORD["tables"])

    # Regression guard: the adaptive executor sizes itself to the host
    # — batched fan-out where cores exist, in-process (no pool, no IPC)
    # on a single core — so ``ParallelExecutor`` must never lose to
    # ``SerialExecutor``.  The guard measures *interleaved pairs*
    # (serial, parallel, serial, parallel ...) and takes the best
    # pair's ratio: machine drift between two separately-timed benches
    # can exceed 10% on a busy host, while a genuine executor
    # regression (the pre-adaptive pool path measured 0.85x on one
    # core) loses *every* pair.  Smoke mode skips the floor: its
    # workload is too small for a stable ratio.
    if not SMOKE:
        pair_ratios = []
        for _ in range(4):
            t0 = time.perf_counter()
            execute_plan(flf_plan, executor=SerialExecutor())
            serial_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            execute_plan(flf_plan, executor=executor)
            pair_ratios.append(serial_s / (time.perf_counter() - t0))
        speedup = max(pair_ratios)
        RECORD["parallel_speedup"] = speedup
        benchmark.extra_info["speedup"] = round(speedup, 2)
        assert speedup >= 1.0, (
            f"parallel speedup {speedup:.2f}x at jobs=4 on "
            f"{os.cpu_count()} cores - the adaptive executor must "
            f"never lose to the serial path (pairs: "
            f"{[round(r, 3) for r in pair_ratios]})"
        )
        # Where the hardware can deliver real fan-out, demand it.
        if executor.effective_jobs() >= 2:
            assert speedup > 1.5, (
                f"parallel speedup {speedup:.2f}x at "
                f"{executor.effective_jobs()} effective jobs "
                f"on {os.cpu_count()} cores"
            )


def test_bench_campaign_warm_cache(benchmark, flf_plan, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    execute_plan(flf_plan, cache=cache)  # fill outside the timed region

    telemetry = CampaignTelemetry()
    dataset = benchmark.pedantic(
        execute_plan,
        args=(flf_plan,),
        kwargs={"cache": cache, "telemetry": telemetry},
        rounds=ROUNDS,
        iterations=1,
    )
    RECORD["warm_s"] = benchmark.stats.stats.min

    counters = telemetry.snapshot()
    assert counters["cache_hits"] == counters["units_total"]
    assert counters["solves"] == 0
    assert dataset.n_solves == 0
    assert _identical(_tables(dataset), RECORD["tables"])

    # The cache-hit speedup holds even on a single core.
    speedup = RECORD["serial_s"] / RECORD["warm_s"]
    benchmark.extra_info["cache_speedup"] = round(speedup, 1)
    assert speedup > 1.5, f"warm-cache speedup {speedup:.2f}x"


def test_bench_campaign_fast(benchmark, flf):
    """The Sherman-Morrison engine.

    This is the acceptance benchmark: >= 3x wall-clock over the
    per-configuration serial path on the leapfrog campaign.
    """
    mcc, faults, setup = flf
    dataset = benchmark.pedantic(
        simulate_faults_fast,
        args=(mcc, faults, setup),
        rounds=ROUNDS,
        iterations=1,
    )
    RECORD["fast_s"] = benchmark.stats.stats.min

    assert _identical(_tables(dataset), RECORD["tables"])

    speedup = RECORD["serial_s"] / RECORD["fast_s"]
    benchmark.extra_info["speedup_vs_serial"] = round(speedup, 2)
    floor = 2.0 if SMOKE else 3.0
    assert speedup >= floor, (
        f"fast engine speedup {speedup:.2f}x < {floor}x floor"
    )


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


def test_bench_campaign_record(flf_plan):
    """Fold the measured timings into the BENCH_campaign.json artifact."""
    required = ("serial_s", "parallel_s", "warm_s", "fast_s")
    missing = [k for k in required if k not in RECORD]
    if missing:
        pytest.skip(f"benches did not run: {missing}")

    serial = RECORD["serial_s"]
    summary = {
        "circuit": "leapfrog",
        "units": flf_plan.n_units,
        "configs": flf_plan.n_configs,
        "faults": flf_plan.n_faults,
        "points_per_decade": POINTS_PER_DECADE,
        "smoke": SMOKE,
        "serial_s": round(serial, 4),
        "parallel_s": round(RECORD["parallel_s"], 4),
        "warm_cache_s": round(RECORD["warm_s"], 4),
        "fast_s": round(RECORD["fast_s"], 4),
        # full mode records the drift-immune interleaved-pair ratio;
        # smoke falls back to the raw (noisier) cross-bench ratio
        "parallel_speedup": round(
            RECORD.get(
                "parallel_speedup", serial / RECORD["parallel_s"]
            ),
            2,
        ),
        "cache_speedup": round(serial / RECORD["warm_s"], 1),
        "fast_speedup": round(serial / RECORD["fast_s"], 2),
        "machine": _machine_spec(),
    }
    out_path = os.path.join(
        os.path.dirname(os.path.abspath(__file__)),
        "BENCH_campaign.json",
    )
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)
        handle.write("\n")
    print()
    print("campaign-bench:", json.dumps(summary))
