"""Run the benchmark over several seeds and save the runs as one run set.

.. code-block:: bash

    python3 bench/record.py --seeds 0-9 --traced-seeds 0-4 \\
        --out bench/baselines/a.json
    python3 bench/record.py --workloads http_cold --traced-seeds "" \\
        --out bench/out/cold.json

Each run is one fresh ``bench/run.py`` process: every workload untraced
for each of ``--seeds``, then traced for each of ``--traced-seeds``,
all with the ``run_seconds`` of ``BENCHMARK.json``.
Its result line is kept as it was printed.  The run set also records
the commit, a machine fingerprint (nproc, CPU model, Python, numpy and
scipy versions) and, per workload and trace mode, the median and
quartiles of every metric across seeds.  ``bench/compare.py`` compares
two run sets.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

sys.path.insert(0, str(BENCH))
from summary import iqr_share, parse_seeds, quartiles  # noqa: E402

SCHEMA = "bench-runset-v1"


def _benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def machine() -> Dict[str, object]:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
            capture_output=True, text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = completed.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0,
                  "metrics": {}}
    result.update(workload=workload, seed=seed, trace=trace,
                  exit_code=completed.returncode,
                  wall_s=time.perf_counter() - start)
    if completed.returncode != 0:
        result["stderr"] = completed.stderr[-2000:]
    return result


def summarize(runs: List[dict]) -> Dict[str, Dict[str, dict]]:
    """``"<workload>/trace<t>" -> metric -> median, quartiles, spread``."""
    groups: Dict[str, Dict[str, List[float]]] = {}
    for run in runs:
        group = groups.setdefault(f"{run['workload']}/trace{run['trace']}",
                                  {})
        for name, metric in run["metrics"].items():
            group.setdefault(name, []).append(metric["value"])
    summary: Dict[str, Dict[str, dict]] = {}
    for group, metrics in groups.items():
        summary[group] = {}
        for name, values in metrics.items():
            q1, median, q3 = quartiles(values)
            summary[group][name] = {
                "n": len(values), "median": median, "q1": q1, "q3": q3,
                "iqr_share": iqr_share(values),
            }
    return summary


def main(argv=None) -> int:
    benchmark = _benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="0-4",
                        help="seeds of the untraced runs, e.g. 0-9")
    parser.add_argument("--traced-seeds", default="0-4",
                        help="seeds of the traced runs ('' for none)")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    seconds = benchmark["run_seconds"]
    runs = []
    for trace, seeds in ((0, args.seeds), (1, args.traced_seeds)):
        for workload in args.workloads.split(","):
            for seed in parse_seeds(seeds):
                run = run_once(workload, seed, seconds, trace)
                runs.append(run)
                print(f"{workload} seed={seed} trace={trace}: exit "
                      f"{run['exit_code']}, correct={run['correct']}, "
                      f"{run['wall_s']:.1f} s", flush=True)
    document = {
        "schema": SCHEMA,
        "commit": commit(),
        "machine": machine(),
        "seconds": seconds,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "summary": summarize(runs),
        "runs": runs,
    }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    bad = [r for r in runs if r["exit_code"] != 0 or not r["correct"]]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
