"""The two HTTP workloads: a real server fleet driven by an open-loop stream.

``http_cold`` boots one server (``repro serve --workers 2 --jobs 2``),
``http_shared`` two replicas behind a router (``repro route`` in front
of two ``repro serve --workers 1``, the topology of the routing example
in ``docs/service.md`` with one worker per replica instead of two), each
server on a fresh ``--cache-dir``.  The fleet may run on every core,
and the runner keeps a speed probe on each (see ``speed.py``).

Load comes from this one process: two sender threads (the benchmark is
sized for a two-core host), each with at most one connection open, send
every job at its scheduled time.  A 429 is retried after its
``Retry-After`` for up to 30 seconds past the due time, then counts as
refused.  Latency runs from the job's due time to the server's
``finished_at``, so neither the
sender's lag nor the poll cadence hides in it; the layers of each job
come from the server timestamps in its view (sent -> ``submitted_at``
-> ``started_at`` -> ``finished_at``) and from ``/metrics`` scraped
before and after the stream.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import re
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis import decade_grid
from repro.circuits import build
from repro.dft import apply_multiconfiguration
from repro.errors import QueueFullError, ReproError, ServiceError
from repro.faults import SimulationSetup, deviation_faults, simulate_faults
from repro.reporting.export import dataset_to_json
from repro.service.client import ServiceClient
from repro.service.jobs import TERMINAL_STATES
from repro.service.metrics import parse_metrics

import streams

ROOT = Path(__file__).resolve().parents[1]

SENDER_THREADS = 2
RETRY_429_S = 30.0
BOOT_TIMEOUT_S = 30.0
DRAIN_TIMEOUT_S = 90.0
STOP_TIMEOUT_S = 20.0


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def _descendants(pid: int) -> List[int]:
    """Every live process below ``pid`` (pool workers of a server)."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    found, frontier = [], [pid]
    while frontier:
        for child in children.get(frontier.pop(), []):
            found.append(child)
            frontier.append(child)
    return found


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Fleet:
    """The server processes of one workload, with ``close()`` that waits
    for every one of them (pool workers included) to end."""

    def __init__(self, workload: str, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.processes: List[subprocess.Popen] = []
        self.server_urls: List[str] = []
        self.url = ""
        self._logs = []

    def _spawn(self, name: str, args: List[str]) -> str:
        log = open(self.workdir / f"{name}.log", "w", encoding="utf-8")
        self._logs.append(log)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            stdout=subprocess.PIPE,
            stderr=log,
            stdin=subprocess.DEVNULL,
            text=True,
            env=_env(),
            cwd=self.workdir,
        )
        self.processes.append(process)
        ready, _, _ = select.select([process.stdout], [], [], BOOT_TIMEOUT_S)
        line = process.stdout.readline() if ready else ""
        match = re.search(r"listening on (http://\S+)", line)
        if match is None:
            raise ServiceError(f"{name} did not start: {line!r}")
        return match.group(1)

    def start(self) -> "Fleet":
        if self.workload == "http_cold":
            self.url = self._spawn("serve", [
                "serve", "--port", "0", "--workers", "2", "--jobs", "2",
                "--cache-dir", str(self.workdir / "cache"),
            ])
            self.server_urls = [self.url]
        else:
            self.server_urls = [
                self._spawn(f"serve{index}", [
                    "serve", "--port", "0", "--workers", "1",
                    "--cache-dir", str(self.workdir / f"cache{index}"),
                ])
                for index in range(2)
            ]
            replicas = []
            for url in self.server_urls:
                replicas += ["--replica", url]
            self.url = self._spawn("route", ["route", "--port", "0",
                                             *replicas])
        ServiceClient(self.url).health()
        for url in self.server_urls:
            client = ServiceClient(url)
            for kind, params in streams.WARMUP_JOBS:
                view = client.wait(client.submit(kind, params)["id"],
                                   timeout=60.0, poll_s=0.02)
                if view["state"] != "done":
                    raise ServiceError(f"warm-up {kind} job failed: "
                                       f"{view.get('error')}")
        return self

    def peak_rss_mb(self) -> float:
        """VmHWM summed over every server process and its children."""
        total_kb = 0
        for process in self.processes:
            for pid in [process.pid, *_descendants(process.pid)]:
                total_kb += _vm_hwm_kb(pid)
        return total_kb / 1024.0

    def close(self) -> None:
        """SIGTERM every process (a server drains, then stops its pool)
        and wait for all of them, killing what outlives the timeout."""
        doomed = {
            pid
            for process in self.processes
            for pid in _descendants(process.pid)
        }
        # the router first, so it forwards nothing to a stopping server
        for process in reversed(self.processes):
            if process.poll() is None:
                process.terminate()
        for process in self.processes:
            try:
                process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            process.stdout.close()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for pid in doomed:
            while _alive(pid):
                if time.monotonic() > deadline:
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(pid, signal.SIGKILL)
                time.sleep(0.02)
        for log in self._logs:
            log.close()


def _alive(pid: int) -> bool:
    """False once ``pid`` is gone or a zombie nobody here can reap."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def boot(workload: str, workdir: Path) -> Fleet:
    """A started fleet; closes whatever started if the boot fails."""
    fleet = Fleet(workload, workdir)
    try:
        return fleet.start()
    except BaseException:
        fleet.close()
        raise


# ----------------------------------------------------------------------
# the stream


@dataclass
class Outcome:
    """What became of one scheduled send."""

    send: streams.Send
    due_wall: float = 0.0
    sent_wall: float = 0.0
    lag_s: float = 0.0
    rtt_s: float = 0.0
    job_id: Optional[str] = None
    #: ``accepted``, ``refused`` (429 past the retry budget) or ``error``
    status: str = ""
    error: Optional[str] = None
    view: dict = field(default_factory=dict)


def send_all(url: str, sends: List[streams.Send]) -> List[Outcome]:
    """Send every job at its due time from two threads; wall-clock
    ``due_wall`` lines up with the servers' ``time.time()`` stamps."""
    outcomes = [Outcome(send) for send in sends]
    client = ServiceClient(url)
    start_wall = time.time() + 0.05
    start_mono = time.monotonic() + 0.05
    cursor = iter(range(len(outcomes)))
    lock = threading.Lock()

    def sender() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            outcome = outcomes[index]
            due_mono = start_mono + outcome.send.due_s
            outcome.due_wall = start_wall + outcome.send.due_s
            delay = due_mono - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            outcome.lag_s = time.monotonic() - due_mono
            outcome.sent_wall = time.time()
            while True:
                begin = time.perf_counter()
                try:
                    view = client.submit(outcome.send.kind,
                                         outcome.send.params)
                except QueueFullError as exc:
                    if time.monotonic() + exc.retry_after_s > (
                        due_mono + RETRY_429_S
                    ):
                        outcome.status, outcome.error = "refused", str(exc)
                        break
                    time.sleep(exc.retry_after_s)
                    continue
                except ReproError as exc:
                    outcome.status, outcome.error = "error", str(exc)
                    break
                outcome.rtt_s = time.perf_counter() - begin
                outcome.status = "accepted"
                outcome.job_id = view["id"]
                outcome.view = view
                break

    threads = [threading.Thread(target=sender, name=f"sender-{index}")
               for index in range(SENDER_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


def _final(view: dict) -> bool:
    """Terminal and stamped: a server marks a job done a moment before it
    stamps ``finished_at``, and a poll can land in between."""
    return (view.get("state") in TERMINAL_STATES
            and view.get("finished_at") is not None)


def collect(url: str, outcomes: List[Outcome]) -> None:
    """Poll every accepted job until it is final; keep its view."""
    client = ServiceClient(url)
    pending = [o for o in outcomes
               if o.status == "accepted" and not _final(o.view)]
    deadline = time.monotonic() + DRAIN_TIMEOUT_S
    while pending:
        still = []
        for outcome in pending:
            view = client.job(outcome.job_id)
            outcome.view = view
            if not _final(view):
                still.append(outcome)
        pending = still
        if pending:
            if time.monotonic() > deadline:
                raise ServiceError(
                    f"{len(pending)} job(s) still running after "
                    f"{DRAIN_TIMEOUT_S:g} s"
                )
            time.sleep(0.1)


def scrape(url: str) -> Dict[str, float]:
    return parse_metrics(ServiceClient(url).metrics_text())


# ----------------------------------------------------------------------
# the correctness gate


def recompute_faultsim(params: dict) -> dict:
    """The ``dataset`` block of a faultsim result, recomputed in-process
    through the library calls the CLI makes."""
    bench = build(params["target"])
    mcc = apply_multiconfiguration(bench.circuit)
    faults = deviation_faults(bench.circuit, deviation=params["deviation"])
    grid = decade_grid(
        bench.f0_hz,
        decades_below=params["decades"],
        decades_above=params["decades"],
        points_per_decade=params["ppd"],
    )
    setup = SimulationSetup(grid=grid, epsilon=params["epsilon"])
    return json.loads(dataset_to_json(simulate_faults(mcc, faults, setup)))


#: faultsim results recomputed in-process after every HTTP run
CHECKED_RESULTS = 10


def check_results(url: str, outcomes: List[Outcome], seed: int) -> List[str]:
    """Names of the sampled faultsim jobs whose served result differs
    from the in-process recomputation."""
    done = [o for o in outcomes if o.send.kind == "faultsim"
            and o.view.get("state") == "done"]
    sample = random.Random(f"check:{seed}").sample(
        done, min(CHECKED_RESULTS, len(done)))
    client = ServiceClient(url)
    mismatches = []
    for outcome in sample:
        served = client.result(outcome.job_id)["result"]["dataset"]
        expected = recompute_faultsim(outcome.send.params)
        # the solve count is work, not answer: a repeat that ran while
        # its original was running read some units from the cache
        del served["n_solves"], expected["n_solves"]
        if served != expected:
            mismatches.append(
                f"{outcome.send.role} faultsim {outcome.send.identity}"
            )
    return mismatches


def fresh_workdir(base: Path) -> Path:
    if base.exists():
        shutil.rmtree(base)
    base.mkdir(parents=True)
    return base
