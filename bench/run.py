"""Run one benchmark workload and print its metrics.

.. code-block:: bash

    python3 bench/run.py --workload faultsim_catalog --seed 0 \\
        --seconds 20 --trace 0

Workloads: ``faultsim_catalog``, ``optimize_flow`` (in-process library
flows) and ``http_cold``, ``http_shared`` (a server fleet under an
open-loop job stream); ``bench/README.md`` says why each was chosen.

The run prints a table of every metric (name, value, unit, in-run
sample count, median and quartiles), checks the outputs against
``bench/reference.json`` (library) or an in-process recomputation
(HTTP), and ends with one JSON line::

    {"correct": true, "attempted": 40, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` records spans around every layer call, writes them to
``bench/out/<workload>-seed<seed>.trace.jsonl`` and reports the
per-layer metrics instead.  A layer that a workload does not run reads
0 there.  A wrong output makes the run exit 1 and name the case.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import streams
from spans import Tracer, calibrate_overhead, covered, self_times
from speed import SpeedProbe
from summary import (
    Metric,
    median_or_zero,
    metrics_json,
    percentile,
    percentile_or_zero,
    ratio,
)

# library_flow, reference and fleet import repro, so they are imported
# only after main() has put this checkout's src/ on the path.

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

LIBRARY_WORKLOADS = ("faultsim_catalog", "optimize_flow")
WORKLOADS = LIBRARY_WORKLOADS + tuple(streams.STREAMS)

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: the tail percentile: 16 of the 160 jobs of an HTTP run lie beyond it
TAIL = 90

#: end-to-end metrics, in the order every runner returns them
E2E = ("setup_s", "latency_p50_s", f"latency_p{TAIL}_s", "latency_mean_s",
       "peak_rss_mb")

#: per-layer metrics: (name, unit); every workload reports all of them
PER_LAYER = (
    ("bench.pass_s", "s"),
    ("faults.simulate_s", "s"),
    ("faults.simulate_share", "ratio"),
    ("faults.solves", "count"),
    ("faults.factorizations", "count"),
    ("core.covering_s", "s"),
    ("core.covering_share", "ratio"),
    ("core.covering.covers", "count"),
    ("core.covering.clauses", "count"),
    ("core.optimizer_s", "s"),
    ("core.frequencies_s", "s"),
    ("core.testprogram_s", "s"),
    ("core.matrix_s", "s"),
    ("reporting.render_s", "s"),
    ("circuits.build_s", "s"),
    ("dft.apply_s", "s"),
    ("faults.universe_s", "s"),
    ("bench.unattributed_s", "s"),
    ("bench.span_coverage", "ratio"),
    ("bench.trace_overhead_share", "ratio"),
    ("bench.slowdown", "ratio"),
    ("service.server.ingress_p50_ms", "ms"),
    ("service.http.submit_rtt_p50_ms", "ms"),
    ("service.http.post_jobs_mean_ms", "ms"),
    ("service.scheduler.queue_wait_p50_s", "s"),
    ("service.scheduler.queue_wait_p95_s", "s"),
    ("service.job.run_p50_s", "s"),
    ("service.job.run_p95_s", "s"),
    ("service.job.run_sum_s", "s"),
    ("service.job.faultsim.run_p50_s", "s"),
    ("service.job.diagnose.run_p50_s", "s"),
    ("service.job.tolerance.run_p50_s", "s"),
    ("service.job.from_cache_ratio", "ratio"),
    ("service.job.duplicate_runs", "count"),
    ("campaign.units_done", "count"),
    ("campaign.cache_hits", "count"),
    ("campaign.cache_hit_ratio", "ratio"),
    ("campaign.solves", "count"),
    ("campaign.factorizations", "count"),
    ("campaign.retries", "count"),
    ("campaign.failures", "count"),
    ("service.router.ring_hit_ratio", "ratio"),
    ("service.router.cross_lookups", "count"),
    ("service.router.failovers", "count"),
    ("service.router.proxy_errors", "count"),
    ("bench.send_lag_p95_ms", "ms"),
)

#: a run whose sender ran later than this at p95 is invalid for comparison
MAX_SEND_LAG_P95_MS = 50.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured window per run (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: record spans, report per-layer metrics")
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# library workloads

_SETUP_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import library_flow; "
    "library_flow.setup(sys.argv[3])"
)


def probe_setup_s(workload: str) -> List[Tuple[float, float]]:
    """``(wall-clock start, seconds)`` of fresh-process set-ups:
    interpreter, imports, catalog and one warm-up case, each in its own
    child process."""
    times = []
    for _ in range(SETUP_REPEATS):
        wall = time.time()
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(BENCH),
             str(ROOT / "src"), workload],
            check=True, cwd=ROOT, stdin=subprocess.DEVNULL,
        )
        times.append((wall, time.perf_counter() - start))
    return times


def library_layers(run, tracer) -> Dict[str, float]:
    """Per-layer medians over the passes of a traced library run."""
    import library_flow

    spans = tracer.spans
    own = self_times(spans)
    pass_of: Dict[int, int] = {}
    for span in spans:
        parent = span.parent
        pass_of[span.id] = span.id if parent is None else pass_of[parent]
    passes = [span for span in spans if span.name == "pass"]
    totals = {span.id: {} for span in passes}
    in_layers = {span.id: 0.0 for span in passes}
    for span in spans:
        bucket = totals[pass_of[span.id]]
        name = span.name
        if name in ("pass", "case"):
            name = "bench.unattributed"
        else:
            in_layers[pass_of[span.id]] += span.duration
        bucket[name] = bucket.get(name, 0.0) + own[span.id]

    def per_pass(fn) -> float:
        return statistics.median(fn(span) for span in passes)

    layers: Dict[str, float] = {}
    for name in library_flow.LAYERS + ("bench.unattributed",):
        layers[f"{name}_s"] = per_pass(
            lambda span: totals[span.id].get(name, 0.0))
    for name in ("faults.simulate", "core.covering"):
        layers[f"{name}_share"] = per_pass(
            lambda span: ratio(totals[span.id].get(name, 0.0),
                               span.duration))
    pass_s = per_pass(lambda span: span.duration)
    layers["bench.pass_s"] = pass_s
    layers["bench.span_coverage"] = per_pass(
        lambda span: ratio(in_layers[span.id], span.duration))
    layers["bench.trace_overhead_share"] = ratio(
        calibrate_overhead() * len(spans) / len(passes), pass_s)
    for name in run.pass_counters[0]:
        layers[name] = statistics.median(
            counters.get(name, 0) for counters in run.pass_counters)
    return layers


def run_library(args, tracer):
    import library_flow
    import reference

    # the run, its set-up children and the probe share one core
    sut_cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {sut_cpu})
    with SpeedProbe(OUT, [sut_cpu]) as probe:
        setup_times = probe_setup_s(args.workload)
        run = library_flow.run(args.workload, args.seed, args.seconds,
                               tracer)
    mismatches = reference.check_library(args.workload, run.outcomes)
    setups = [probe.reference_s(*timed) for timed in setup_times]
    # a circuit's latency is the median of its cases, and the percentiles
    # are over the circuits, so every run weighs the same circuits alike
    latencies = [
        statistics.median(probe.reference_s(*case) for case in cases)
        for cases in run.cases.values()
    ]
    cases_per_pass = sum(map(len, run.cases.values())) / len(run.passes)
    per_case = [probe.reference_s(*timed) / cases_per_pass
                for timed in run.passes]
    e2e = [
        Metric("setup_s", "s", statistics.median(setups), setups),
        Metric("latency_p50_s", "s", percentile(latencies, 50), latencies),
        Metric(f"latency_p{TAIL}_s", "s", percentile(latencies, TAIL),
               latencies),
        Metric("latency_mean_s", "s", statistics.median(per_case), per_case),
        Metric("peak_rss_mb", "MB",
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0),
    ]
    layers = {}
    if tracer.enabled:
        layers = library_layers(run, tracer)
        layers["bench.slowdown"] = probe.mean_slowdown()
    return e2e, layers, run.attempted, run.failed, mismatches


# ----------------------------------------------------------------------
# HTTP workloads


def _delta(before: Dict[str, float], after: Dict[str, float],
           name: str) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)


def http_layers(outcomes, before, after) -> Dict[str, float]:
    accepted = [o for o in outcomes if o.status == "accepted"]
    done = [o for o in accepted if o.view.get("state") == "done"]
    ran = [o for o in done if not o.view.get("from_cache")]
    runs = [o.view["finished_at"] - o.view["started_at"] for o in ran]
    waits = [o.view["started_at"] - o.view["submitted_at"] for o in ran]
    layers = {
        "service.server.ingress_p50_ms": 1000 * median_or_zero(
            [o.view["submitted_at"] - o.sent_wall for o in accepted]),
        "service.http.submit_rtt_p50_ms": 1000 * median_or_zero(
            [o.rtt_s for o in accepted]),
        "service.http.post_jobs_mean_ms": 1000 * ratio(
            _delta(before, after,
                   'repro_http_request_duration_seconds_sum{route="/jobs"}'),
            _delta(before, after,
                   'repro_http_request_duration_seconds_count{route="/jobs"}'),
        ),
        "service.scheduler.queue_wait_p50_s": median_or_zero(waits),
        "service.scheduler.queue_wait_p95_s": percentile_or_zero(waits, 95),
        "service.job.run_p50_s": median_or_zero(runs),
        "service.job.run_p95_s": percentile_or_zero(runs, 95),
        "service.job.run_sum_s": sum(runs),
        "service.job.from_cache_ratio": ratio(
            sum(1 for o in done if o.view.get("from_cache")), len(done)),
        "service.job.duplicate_runs": sum(
            1 for o in ran if o.send.role == "repeat"),
        "bench.send_lag_p95_ms": 1000 * percentile_or_zero(
            [o.lag_s for o in outcomes], 95),
    }
    for kind in ("faultsim", "diagnose", "tolerance"):
        layers[f"service.job.{kind}.run_p50_s"] = median_or_zero(
            [o.view["finished_at"] - o.view["started_at"]
             for o in ran if o.send.kind == kind])
    for counter in ("units_done", "cache_hits", "solves", "factorizations",
                    "retries", "failures"):
        layers[f"campaign.{counter}"] = _delta(
            before, after, f"repro_campaign_{counter}")
    layers["campaign.cache_hit_ratio"] = ratio(
        layers["campaign.cache_hits"], layers["campaign.units_done"])
    layers["service.router.ring_hit_ratio"] = ratio(
        _delta(before, after, "repro_router_ring_hits_total"),
        _delta(before, after, "repro_router_jobs_routed_total"))
    for counter in ("cross_lookups", "failovers", "proxy_errors"):
        layers[f"service.router.{counter}"] = _delta(
            before, after, f"repro_router_{counter}_total")
    return layers


def http_spans(outcomes, tracer) -> float:
    """Per-job spans from the view timestamps; returns their median
    coverage of due -> finished."""
    coverages = []
    for outcome in outcomes:
        view = outcome.view
        if outcome.status != "accepted" or view.get("finished_at") is None:
            continue
        marks = [outcome.due_wall, outcome.sent_wall, view["submitted_at"],
                 view["started_at"], view["finished_at"]]
        root = tracer.add("job", marks[0], marks[-1], kind=outcome.send.kind,
                          role=outcome.send.role, job=outcome.job_id)
        children = []
        for name, start, end in zip(
            ("bench.send_lag", "service.ingress", "service.queue",
             "service.run"), marks, marks[1:],
        ):
            tracer.add(name, start, end, parent=root)
            children.append((start, end))
        if marks[-1] > marks[0]:
            coverages.append(covered((marks[0], marks[-1]), children)
                             / (marks[-1] - marks[0]))
    return statistics.median(coverages) if coverages else 0.0


def run_http(args, tracer):
    import fleet

    sends = streams.STREAMS[args.workload](args.seed, args.seconds)
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    setup_times = []
    measured = None
    try:
        # the fleet uses every core, so every core has a probe
        with SpeedProbe(workdir, os.sched_getaffinity(0)) as probe:
            for attempt in range(SETUP_REPEATS):
                wall = time.time()
                start = time.perf_counter()
                booted = fleet.boot(
                    args.workload, fleet.fresh_workdir(workdir / str(attempt))
                )
                setup_times.append((wall, time.perf_counter() - start))
                if attempt + 1 < SETUP_REPEATS:
                    booted.close()
                else:
                    measured = booted
            before = fleet.scrape(measured.url)
            outcomes = fleet.send_all(measured.url, sends)
            fleet.collect(measured.url, outcomes)
            after = fleet.scrape(measured.url)
        rss_mb = measured.peak_rss_mb()
        mismatches = fleet.check_results(measured.url, outcomes, args.seed)
    finally:
        try:
            if measured is not None:
                measured.close()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    setups = [probe.reference_s(*timed) for timed in setup_times]
    latencies = []
    for o in outcomes:
        if o.view.get("state") == "done":
            latencies.append(probe.reference_s(
                o.due_wall, o.view["finished_at"] - o.due_wall))
        else:
            print(f"{o.send.kind} job {o.send.identity} failed: "
                  f"{o.error or o.view.get('error')}", file=sys.stderr)
    failed = len(outcomes) - len(latencies)
    e2e = [
        Metric("setup_s", "s", statistics.median(setups), setups),
        Metric("latency_p50_s", "s", percentile(latencies, 50), latencies),
        Metric(f"latency_p{TAIL}_s", "s", percentile(latencies, TAIL),
               latencies),
        Metric("latency_mean_s", "s", statistics.fmean(latencies),
               latencies),
        Metric("peak_rss_mb", "MB", rss_mb),
    ]
    layers = http_layers(outcomes, before, after)
    if layers["bench.send_lag_p95_ms"] > MAX_SEND_LAG_P95_MS:
        print(f"warning: send lag p95 "
              f"{layers['bench.send_lag_p95_ms']:.1f} ms exceeds "
              f"{MAX_SEND_LAG_P95_MS:g} ms; this run is invalid for "
              "comparison", file=sys.stderr)
    if tracer.enabled:
        layers["bench.span_coverage"] = http_spans(outcomes, tracer)
        layers["bench.slowdown"] = probe.mean_slowdown()
    else:
        layers = {}
    return e2e, layers, len(outcomes), failed, mismatches


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} is missing; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    tracer = Tracer(enabled=args.trace == 1)
    runner = run_library if args.workload in LIBRARY_WORKLOADS else run_http
    e2e, layers, attempted, failed, mismatches = runner(args, tracer)
    assert tuple(metric.name for metric in e2e) == E2E

    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {attempted} attempted, {failed} failed")
    for metric in e2e:
        print(metric.row())
    reported = e2e
    if tracer.enabled:
        reported = [Metric(name, unit, float(layers.get(name, 0.0)))
                    for name, unit in PER_LAYER]
        print("per layer (self time; 0 = layer not on this workload's path):")
        for metric in reported:
            print(metric.row())
        path = OUT / f"{args.workload}-seed{args.seed}.trace.jsonl"
        tracer.write_jsonl(path)
        print(f"spans: {len(tracer.spans)} written to {path}")
    for case in mismatches:
        print(f"MISMATCH: {case}", file=sys.stderr)
    print(json.dumps({
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics_json(reported),
    }))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
