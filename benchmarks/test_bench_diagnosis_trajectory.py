"""Trajectory-dictionary benchmarks: build and match latency.

Measures the parametric-diagnosis subsystem on a catalog circuit and
records the timings as JSON — in each bench's ``extra_info``, as a
printed summary line, and as a ``BENCH_diagnosis_trajectory.json``
artifact next to this file (machine spec and commit hash included) that
CI uploads.

Paths covered:

* ``serial``   — the build on a :class:`SerialExecutor`: one
  stamp-program replay per configuration assembling the whole
  deviation family's ``G + jωC`` pencils, one stacked LAPACK dispatch
  per trajectory-point sweep;
* ``parallel`` — the same build fanned out one campaign unit per
  configuration over a two-worker :class:`ParallelExecutor`;
* ``match``    — nearest-trajectory location of a seeded fault against
  the pre-built dictionary (pure numpy scoring, no solves).

``BENCH_SMOKE=1`` shrinks the deviation grid and rounds so CI can
afford the run; the correctness assertion — bit-identical dictionaries
across executors — stays strict.
"""

import json
import os
import platform
import subprocess

import numpy as np
import pytest

from repro.analysis import decade_grid
from repro.campaign import ParallelExecutor, SerialExecutor
from repro.circuits import build
from repro.dft import apply_multiconfiguration
from repro.diagnosis import (
    deviation_grid,
    match_response,
    observe_fault,
    run_diagnosis_campaign,
)
from repro.faults import DeviationFault

#: CI smoke mode: fewer deviations, single round
SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

CIRCUIT = "sallen_key"
POINTS_PER_DECADE = 6
STEPS = 4 if SMOKE else 16  # deviations per side of the grid
SPAN = 0.5
ROUNDS = 1 if SMOKE else 5
WARMUP = 0 if SMOKE else 1  # untimed round absorbs first-touch costs
INJECTED = ("R1a", 0.30)

RECORD = {}


@pytest.fixture(scope="module")
def workload():
    bench = build(CIRCUIT)
    mcc = apply_multiconfiguration(
        bench.circuit, chain=bench.chain, input_node=bench.input_node
    )
    grid = decade_grid(
        bench.f0_hz, 1, 1, points_per_decade=POINTS_PER_DECADE
    )
    return mcc, grid, deviation_grid(span=SPAN, steps=STEPS)


def _build(mcc, grid, deviations, executor):
    return run_diagnosis_campaign(
        mcc, grid, deviations=deviations, executor=executor
    )


def _assert_dictionaries_equal(a, b):
    assert set(a.responses) == set(b.responses)
    for index in a.nominal:
        assert np.array_equal(
            a.nominal[index].values, b.nominal[index].values
        )
    for key, response in a.responses.items():
        assert np.array_equal(response.values, b.responses[key].values)


def test_bench_trajectory_serial(benchmark, workload):
    mcc, grid, deviations = workload
    dictionary = benchmark.pedantic(
        _build,
        args=(mcc, grid, deviations, SerialExecutor()),
        rounds=ROUNDS,
        warmup_rounds=WARMUP,
        iterations=1,
    )
    RECORD["serial_s"] = benchmark.stats.stats.min
    RECORD["dictionary"] = dictionary
    benchmark.extra_info["points"] = dictionary.n_points
    benchmark.extra_info["frequencies"] = grid.n_points
    assert dictionary.n_solves == dictionary.n_configs * (
        1 + dictionary.n_points // dictionary.n_configs
    )


def test_bench_trajectory_parallel(benchmark, workload):
    """The build fanned out one unit per configuration."""
    mcc, grid, deviations = workload
    executor = ParallelExecutor(jobs=2)
    dictionary = benchmark.pedantic(
        _build,
        args=(mcc, grid, deviations, executor),
        rounds=ROUNDS,
        warmup_rounds=WARMUP,
        iterations=1,
    )
    RECORD["parallel_s"] = benchmark.stats.stats.min
    _assert_dictionaries_equal(dictionary, RECORD["dictionary"])


def test_bench_trajectory_match(benchmark, workload):
    """Locating a seeded fault against the dictionary: numpy-only."""
    mcc, grid, _ = workload
    dictionary = RECORD.get("dictionary")
    if dictionary is None:
        pytest.skip("build benches did not run")
    component, deviation = INJECTED
    observed = observe_fault(
        mcc, DeviationFault(component, deviation), grid
    )
    diagnosis = benchmark.pedantic(
        match_response,
        args=(dictionary, observed),
        rounds=ROUNDS,
        iterations=10,
    )
    RECORD["match_s"] = benchmark.stats.stats.min / 10
    best = diagnosis.best
    assert best.component == component
    assert abs(best.deviation - deviation) <= dictionary.deviation_step
    assert component in diagnosis.ambiguity


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


def test_bench_trajectory_record(workload):
    """Fold the measured timings into BENCH_diagnosis_trajectory.json."""
    required = ("serial_s", "parallel_s", "match_s")
    missing = [k for k in required if k not in RECORD]
    if missing:
        pytest.skip(f"benches did not run: {missing}")

    _, grid, _ = workload
    dictionary = RECORD["dictionary"]
    serial = RECORD["serial_s"]
    summary = {
        "circuit": CIRCUIT,
        "configurations": dictionary.n_configs,
        "components": len(dictionary.components),
        "deviations": len(dictionary.deviations),
        "points": dictionary.n_points,
        "frequencies": grid.n_points,
        "smoke": SMOKE,
        "serial_s": round(serial, 4),
        "parallel_s": round(RECORD["parallel_s"], 4),
        "match_s": round(RECORD["match_s"], 6),
        "parallel_speedup": round(serial / RECORD["parallel_s"], 2),
        "machine": _machine_spec(),
    }
    out_path = os.path.join(
        os.path.dirname(os.path.abspath(__file__)),
        "BENCH_diagnosis_trajectory.json",
    )
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)
        handle.write("\n")
    print()
    print("diagnosis-trajectory-bench:", json.dumps(summary))
