#!/usr/bin/env python
"""A restarted job server answers repeated jobs from its cache.

Starts ``repro serve`` on a cache directory and runs one fixed
faultsim, diagnose and tolerance job; then stops the server, starts it
again on the same directory and resubmits the three jobs.  Every answer
must come from the job cache (``from_cache``), the restarted server's
``/metrics`` must show ``repro_campaign_solves 0``, and after each pass
the directory must hold exactly the server's ``units/`` and ``jobs/``
caches.

.. code-block:: bash

    PYTHONPATH=src python tools/warm_restart.py --cache-dir DIR

Exit status: 0 when the check holds, 1 otherwise (the reason on
stderr).
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys

from repro.service import ServiceClient

JOBS = (
    ("faultsim", {"target": "sallen_key", "ppd": 6, "decades": 1.0}),
    ("diagnose", {"target": "sallen_key", "ppd": 6, "decades": 1.0,
                  "steps": 2}),
    ("tolerance", {"circuits": ["sallen_key"], "samples": 16, "ppd": 4,
                   "decades": 0.5, "max_corner_components": 4}),
)


def serve(cache_dir: str, workers: int):
    """(process, client) of a fresh server on an ephemeral port."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", str(workers), "--cache-dir", cache_dir],
        stdout=subprocess.PIPE,
        text=True,
    )
    match = re.search(r"listening on (http://\S+)", process.stdout.readline())
    if match is None:
        process.kill()
        raise SystemExit("error: the server did not start")
    return process, ServiceClient(match.group(1), timeout=10.0)


def check_layout(cache_dir: str, stage: str) -> list:
    """The failed expectation if the directory holds anything but the
    server's two caches."""
    entries = sorted(os.listdir(cache_dir))
    if entries != ["jobs", "units"]:
        return [f"{stage}: cache directory holds {entries}, "
                "expected ['jobs', 'units']"]
    return []


def run(cache_dir: str, workers: int) -> list:
    """Cold pass, restart, warm pass; the failed expectations."""
    failures = []
    process, client = serve(cache_dir, workers)
    try:
        for kind, params in JOBS:
            view = client.wait(client.submit(kind, params)["id"],
                               timeout=300.0)
            if view["state"] != "done":
                failures.append(f"cold {kind}: {view.get('error')}")
    finally:
        client.shutdown()
        process.wait(timeout=60)
    failures += check_layout(cache_dir, "cold")
    process, client = serve(cache_dir, workers)
    try:
        for kind, params in JOBS:
            if not client.submit(kind, params)["from_cache"]:
                failures.append(f"warm {kind}: not answered from cache")
        solves = client.metrics().get("repro_campaign_solves", 0.0)
        if solves != 0.0:
            failures.append(f"warm server made {solves:g} solve(s)")
    finally:
        client.shutdown()
        process.wait(timeout=60)
    failures += check_layout(cache_dir, "warm")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cache-dir", required=True,
                        help="job server cache directory (reused)")
    parser.add_argument("--workers", type=int, default=2,
                        help="scheduler workers per server (default 2)")
    args = parser.parse_args(argv)
    failures = run(args.cache_dir, args.workers)
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    if not failures:
        print(f"warm restart answered {len(JOBS)} job(s) from cache "
              "with 0 solves")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
