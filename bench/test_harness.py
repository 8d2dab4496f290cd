"""Self-tests of the benchmark harness (not of the repro package).

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import random
import re
import statistics
import time
from pathlib import Path

import pytest

import compare
import run
import speed
import streams
from spans import Span, Tracer, covered, self_times
from speed import SpeedProbe
from summary import iqr_share, percentile, quartiles

ROOT = Path(__file__).resolve().parents[1]


def _benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# job lists


@pytest.mark.parametrize("workload", sorted(streams.STREAMS))
def test_stream_is_byte_identical_per_seed(workload):
    make = streams.STREAMS[workload]
    first = json.dumps([vars(s) for s in make(3, 20.0)], sort_keys=True)
    again = json.dumps([vars(s) for s in make(3, 20.0)], sort_keys=True)
    other = json.dumps([vars(s) for s in make(4, 20.0)], sort_keys=True)
    assert first == again
    assert first != other


def test_library_passes_are_identical_per_seed():
    library_flow = pytest.importorskip("library_flow")
    for workload in run.LIBRARY_WORKLOADS:
        runs = [
            [library_flow.make_pass(workload, rng) for _ in range(3)]
            for rng in (random.Random(7), random.Random(7))
        ]
        assert runs[0] == runs[1]
    cases = library_flow.make_pass("optimize_flow", random.Random(1))
    assert sorted((c.circuit, c.epsilon) for c in cases) == sorted(
        library_flow.OPTIMIZE_CASES)


@pytest.mark.parametrize("seconds", (20.0, 60.0, 100.0))
@pytest.mark.parametrize("seed", range(5))
def test_http_cold_identities_are_all_distinct(seed, seconds):
    sends = streams.http_cold(seed, seconds)
    assert len(sends) == round(streams.RATE_PER_S * seconds)
    assert len({s.identity for s in sends}) == len(sends)
    # no two tolerance jobs share a seed (they would share cached units)
    seeds = [s.params["seed"] for s in sends if s.kind == "tolerance"]
    assert len(set(seeds)) == len(seeds)


def test_http_cold_offers_the_same_work_every_seed():
    def shapes(seed):
        return sorted(
            (s.kind, s.params.get("target"), str(s.params.get("circuits")),
             s.params.get("ppd"))
            for s in streams.http_cold(seed, 20.0)
        )

    assert shapes(0) == shapes(1) == shapes(9)


@pytest.mark.parametrize("workload", sorted(streams.STREAMS))
def test_a_stream_too_long_for_distinct_jobs_is_refused(workload):
    with pytest.raises(ValueError, match="too long"):
        streams.STREAMS[workload](0, 3600.0)


@pytest.mark.parametrize("seconds", (20.0, 60.0, 100.0))
@pytest.mark.parametrize("seed", range(5))
def test_http_shared_is_one_third_repeats_and_variants(seed, seconds):
    sends = streams.http_shared(seed, seconds)
    roles = [s.role for s in sends]
    assert roles.count("original") == roles.count("repeat") == \
        roles.count("variant") == len(sends) // 3
    originals = {s.base: s for s in sends if s.role == "original"}
    assert len({s.identity for s in originals.values()}) == len(originals)
    for send in sends:
        original = originals[send.base]
        if send.role == "repeat":
            assert send.identity == original.identity
        if send.role == "variant":
            changed = {k for k in send.params
                       if send.params[k] != original.params[k]}
            name = "percentile" if send.kind == "tolerance" else "epsilon"
            assert changed == {name}
        if send.role != "original":
            delay = send.due_s - original.due_s
            assert streams.FOLLOW_S[0] <= delay <= streams.FOLLOW_S[1]
    variants = [s.identity for s in sends if s.role == "variant"]
    assert len(set(variants)) == len(variants)
    assert not set(variants) & {s.identity for s in originals.values()}
    assert max(s.due_s for s in sends) <= seconds


# ----------------------------------------------------------------------
# statistics


def test_percentile_interpolates_between_ranks():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([4, 1, 3, 2], 0) == 1
    assert percentile([4, 1, 3, 2], 100) == 4
    assert percentile([10.0], 90) == 10.0
    assert percentile(list(range(11)), 90) == pytest.approx(9.0)
    values = [0.3, 5.0, 0.05, 0.8, 0.2, 0.9]
    assert percentile(values, 50) == statistics.median(values)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_quartiles_match_statistics_quantiles():
    values = [0.9, 1.3, 1.0, 1.2, 5.0, 1.1, 0.95]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)
    q1, median, q3 = quartiles(values)
    assert iqr_share(values) == pytest.approx((q3 - q1) / median)
    assert iqr_share([3.0, 3.0, 3.0]) == 0.0


# ----------------------------------------------------------------------
# spans


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, None, "pass", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 3.0),
        Span(2, 0, "b", 2.0, 5.0),    # overlaps a: union 1..5
        Span(3, 0, "c", 7.0, 8.0),
        Span(4, 3, "d", 7.5, 9.0),    # clipped to its parent's end
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[3] == pytest.approx(1.0 - 0.5)
    assert own[4] == pytest.approx(1.5)
    assert covered((0.0, 1.0), [(2.0, 3.0)]) == 0.0


def test_tracer_nests_spans_and_stays_empty_when_disabled():
    tracer = Tracer(enabled=True)
    with tracer.span("pass"):
        with tracer.span("case"):
            with tracer.span("faults.simulate"):
                pass
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("pass", None), ("case", 0), ("faults.simulate", 1)]
    off = Tracer(enabled=False)
    with off.span("pass"):
        off.add("job", 0.0, 1.0)
    assert off.spans == []


def _series(path, samples):
    path.write_text("".join(f"{t!r} {c!r}\n" for t, c in samples) + "12.5")
    return speed._Series(path)


def test_slowdown_averages_the_probe_samples_near_an_interval(tmp_path):
    probe = SpeedProbe(tmp_path, [0])
    ref = speed.REFERENCE_CHUNK_S
    # written out of order, and cut short at the end
    probe.series = [_series(tmp_path / "cpu0.txt", [
        (10.1, 2 * ref), (10.0, ref), (10.2, 2 * ref), (10.3, ref),
        (12.0, 3 * ref)])]
    period = speed.PERIOD_S
    # samples within one period of [10.1, 10.2]
    assert probe.slowdown(10.1 + period / 2, 10.2 - period / 2) == \
        pytest.approx(2.0)
    assert probe.slowdown(10.0, 10.3) == pytest.approx(1.5)
    # no sample that close: the nearest later one, or the last one
    assert probe.slowdown(11.0, 11.5) == pytest.approx(3.0)
    assert probe.slowdown(20.0, 21.0) == pytest.approx(3.0)
    # work timed while the probe ran twice as slow counts half
    assert probe.reference_s(10.15, 0.01) == pytest.approx(0.5 * 0.01)
    # cores are averaged
    probe.series.append(_series(tmp_path / "cpu1.txt", [(10.0, 4 * ref)]))
    assert probe.slowdown(10.0, 10.3) == pytest.approx((1.5 + 4.0) / 2)


def test_the_probes_sample_and_stop(tmp_path):
    cpus = sorted(os.sched_getaffinity(0))
    with SpeedProbe(tmp_path, cpus) as probe:
        time.sleep(0.2)
    assert len(probe.series) == len(cpus)
    assert all(len(series.times) >= 2 for series in probe.series)
    assert probe.mean_slowdown() > 0
    assert list(tmp_path.iterdir()) == []
    assert all(p.returncode is not None for p in probe._processes)


# ----------------------------------------------------------------------
# the contract with BENCHMARK.json and the compare tool


def test_benchmark_json_matches_the_runner():
    benchmark = _benchmark()
    assert [(m["name"], m["unit"]) for m in benchmark["per_layer"]] == list(
        run.PER_LAYER)
    assert [m["name"] for m in benchmark["end_to_end"]] == list(run.E2E)
    assert [w["name"] for w in benchmark["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in benchmark[key]] + [w["name"]
                                         for w in benchmark["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
    for workload in benchmark["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in benchmark["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in benchmark["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in benchmark["end_to_end"])


def test_verdicts():
    a = [1.0, 1.01, 0.99, 1.0, 1.02, 1.01, 0.98, 1.0, 1.03, 0.99]
    faster = [x * 0.8 for x in a]
    slower = [x * 1.2 for x in a]
    pairs = list(zip(a, faster))
    assert compare.verdict(a, faster, pairs, "lower", 0.1) == (
        "improved", 1.0)
    assert compare.verdict(a, slower, list(zip(a, slower)), "lower",
                           0.1)[0] == "worse"
    assert compare.verdict(a, a, list(zip(a, a)), "lower", 0.1) == (
        "unchanged", 0.0)
    noisy = [0.5, 1.5, 1.0, 0.7, 1.3, 0.6, 1.4, 1.0, 0.8, 1.2]
    assert compare.verdict(a, noisy, list(zip(a, noisy)), "lower",
                           0.1)[0] == "unresolved"
    # higher-is-better flips the direction
    assert compare.verdict(a, slower, list(zip(a, slower)), "higher",
                           0.1)[0] == "improved"


def test_a_gain_needs_ten_pairs():
    a = [1.0, 1.01, 0.99, 1.0, 1.02]
    faster = [x * 0.8 for x in a]
    assert compare.verdict(a, faster, list(zip(a, faster)), "lower",
                           0.1) == ("unresolved", 1.0)


def test_winning_pairs_do_not_make_a_worse_median_improved():
    # pooled run sets with unequal seeds: the one shared seed is a win,
    # but B's median is worse than A's
    a = [1.0, 1.01, 0.99, 1.0, 1.02, 1.01, 0.98, 1.0, 1.03, 0.99]
    b = [1.05, 1.06, 1.04, 1.05, 1.07, 1.06, 1.03, 1.05, 1.08, 1.04]
    result, share = compare.verdict(a, b, [(1.0, 0.9)], "lower", 0.1)
    assert share == 1.0
    assert result == "unchanged"


def test_compare_refuses_run_sets_of_different_lengths(tmp_path):
    for name, seconds in (("a.json", 20), ("b.json", 30)):
        (tmp_path / name).write_text(json.dumps(
            {"seconds": seconds, "runs": [], "machine": {}, "commit": "x"}))
    assert compare.main([str(tmp_path / "a.json"),
                         str(tmp_path / "b.json")]) == 2
    with pytest.raises(SystemExit):
        compare.load(str(tmp_path))
