"""Compare two run sets written by ``bench/record.py``.

.. code-block:: bash

    python3 bench/compare.py bench/baselines/a.json bench/baselines/b.json

``A`` is the parent, ``B`` the change; either may be a directory whose
run sets are pooled, so the two sides can be recorded alternately, one
seed at a time, and host drift hits both alike.  For every (end-to-end
metric, workload) it prints both medians with their quartiles, the
share of same-seed pairs that B wins (ties count for neither side) and
a verdict under the bounds of ``BENCHMARK.json``:

``unresolved``
    A's or B's run-to-run spread (IQR / median) is wider than the
    bound, and not every run of B beats every run of A;
``improved``
    there are at least 10 same-seed pairs, B wins at least 9 in 10 of
    them, and B's median is better than A's by more than A's IQR (with
    fewer pairs such a result is ``unresolved``);
``worse``
    B's median is worse than A's by more than the bound;
``unchanged``
    none of the above.

The work counters of the library workloads (per-layer metrics with unit
``count`` in traced runs) must repeat exactly, seed by seed.  The exit
code is 1 when any metric is worse, a counter differs, or a run was
wrong or invalid (sender lag over 50 ms at p95), and 2 when the two
sides ran windows of different lengths.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

sys.path.insert(0, str(BENCH))
from run import LIBRARY_WORKLOADS, MAX_SEND_LAG_P95_MS  # noqa: E402
from summary import iqr_share, quartiles  # noqa: E402

#: same-seed pairs needed before a gain is claimed
MIN_PAIRS = 10


def _by_seed(runset: dict, workload: str, trace: int,
             metric: str) -> Dict[int, float]:
    return {
        run["seed"]: run["metrics"][metric]["value"]
        for run in runset["runs"]
        if run["workload"] == workload and run["trace"] == trace
        and metric in run["metrics"]
    }


def verdict(a: List[float], b: List[float], pairs: List[Tuple[float, float]],
            better: str, bound: float) -> Tuple[str, float]:
    """``(verdict, share of pairs B wins)`` for one metric and workload."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    share = wins / len(pairs) if pairs else 0.0
    a_q1, a_median, a_q3 = quartiles(a)
    b_median = quartiles(b)[1]
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if max(iqr_share(a), iqr_share(b)) > bound and not all_better:
        return "unresolved", share
    gain = sign * (a_median - b_median)
    if share >= 0.9 and gain > a_q3 - a_q1:
        # a gain needs enough pairs to be claimed at all
        claim = "improved" if len(pairs) >= MIN_PAIRS else "unresolved"
        return claim, share
    if sign * (b_median - a_median) > bound * abs(a_median):
        return "worse", share
    return "unchanged", share


def invalid_runs(runset: dict) -> List[str]:
    bad = []
    for run in runset["runs"]:
        name = f"{run['workload']} seed={run['seed']} trace={run['trace']}"
        if run.get("exit_code", 0) != 0 or not run.get("correct"):
            bad.append(f"{name}: failed or wrong output")
        lag = run["metrics"].get("bench.send_lag_p95_ms", {}).get("value")
        if lag is not None and lag > MAX_SEND_LAG_P95_MS:
            bad.append(f"{name}: send lag p95 {lag:.1f} ms")
    return bad


def compare(a: dict, b: dict, benchmark: dict) -> Tuple[List[str], bool]:
    """Report lines and whether the comparison passes."""
    lines = []
    ok = True
    for label, runset in (("A", a), ("B", b)):
        for problem in invalid_runs(runset):
            lines.append(f"invalid run in {label}: {problem}")
            ok = False
    header = (f"{'workload':<17s} {'metric':<15s} {'A median [q1, q3]':<34s} "
              f"{'B median [q1, q3]':<34s} {'B wins':>6s}  verdict")
    lines.append(header)
    for workload in [w["name"] for w in benchmark["workloads"]]:
        for spec in benchmark["end_to_end"]:
            a_seeds = _by_seed(a, workload, 0, spec["name"])
            b_seeds = _by_seed(b, workload, 0, spec["name"])
            if not a_seeds or not b_seeds:
                continue
            pairs = [(a_seeds[s], b_seeds[s]) for s in sorted(a_seeds)
                     if s in b_seeds]
            result, share = verdict(list(a_seeds.values()),
                                    list(b_seeds.values()), pairs,
                                    spec["better"], spec["bound"])
            ok = ok and result != "worse"
            cells = []
            for values in (a_seeds.values(), b_seeds.values()):
                q1, median, q3 = quartiles(list(values))
                cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}]")
            lines.append(
                f"{workload:<17s} {spec['name']:<15s} {cells[0]:<34s} "
                f"{cells[1]:<34s} {share:>6.0%}  {result}"
            )
    counters = [m["name"] for m in benchmark["per_layer"]
                if m["unit"] == "count"]
    for workload in LIBRARY_WORKLOADS:
        for name in counters:
            a_seeds = _by_seed(a, workload, 1, name)
            b_seeds = _by_seed(b, workload, 1, name)
            differ = sorted(s for s in a_seeds
                            if s in b_seeds and a_seeds[s] != b_seeds[s])
            if differ:
                ok = False
                lines.append(f"COUNTER MISMATCH {workload} {name} on "
                             f"seed(s) {differ}")
    return lines, ok


def load(path: str) -> dict:
    """One run set, or the runs of every run set in a directory; the
    pooled sets must share their run length."""
    files = sorted(Path(path).glob("*.json")) if Path(path).is_dir() else [
        Path(path)]
    sets = []
    for name in files:
        with open(name, encoding="utf-8") as handle:
            sets.append(json.load(handle))
    if not sets:
        raise SystemExit(f"error: no run set in {path}")
    lengths = {runset["seconds"] for runset in sets}
    if len(lengths) > 1:
        raise SystemExit(f"error: the run sets in {path} have different "
                         f"run lengths: {sorted(lengths)} s")
    return dict(sets[0], runs=[run for runset in sets
                               for run in runset["runs"]])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", help="run set (or directory of run sets) "
                        "of the parent")
    parser.add_argument("b", help="run set (or directory) of the change")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    runsets = [load(args.a), load(args.b)]
    if runsets[0]["seconds"] != runsets[1]["seconds"]:
        print(f"error: A ran {runsets[0]['seconds']} s runs and B "
              f"{runsets[1]['seconds']} s runs; compare equal run lengths",
              file=sys.stderr)
        return 2
    for label, runset in zip("AB", runsets):
        machine = runset.get("machine", {})
        print(f"{label}: commit {runset.get('commit', '?')[:12]}, "
              f"{machine.get('nproc')} x {machine.get('cpu_model')}")
    if runsets[0].get("machine") != runsets[1].get("machine"):
        print("warning: the machines differ; compare wall times with care")
    lines, ok = compare(runsets[0], runsets[1], benchmark)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
