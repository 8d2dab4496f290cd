"""Host speed, sampled next to the system under test, to steady the timings.

The virtual machines this benchmark runs on share their cores with
other machines, and a core's speed flips between states that differ by
up to 1.8x and last from a fraction of a second to many seconds.  Wall
times of identical runs then differ by up to 50 % (IQR / median), far
more than any change the benchmark must detect.

So while the benchmark measures, a *probe* process runs on every core
the system under test uses: every ``PERIOD_S`` it times one fixed
computation (small complex solves and dict updates in numpy and Python,
the mix of the library's own inner loops, but none of its code) in
thread CPU time, which leaves out the time the probe waits for its
core.  ``slowdown(start, end)`` is the probe time over an interval,
averaged over the cores, divided by ``REFERENCE_CHUNK_S``, the probe
time on an uncontended core of the development host.  A timing divided
by the slowdown of its own interval is in *reference seconds*: the wall
seconds the work would have taken on that core.  A change to the program
moves reference seconds as it moves wall seconds; a change of the
host's state mostly does not.

A probe tracks the core it shares: per 0.1 s work item, the IQR /
median of wall times was 0.23 and that of reference times 0.06 with the
work and the probe on one core, 0.14 with the work free to move between
two probed cores, and no better than the wall times with the probe on
another core.  The library workloads therefore run on one core with its
probe; the HTTP fleets use both cores, each with a probe.  The
correction is not complete: a probe chunk fits in the core's caches, and
when neighbours contend for memory, code with a large working set (the
63-configuration ``cascade``) slows more than the probe does.

Each probe takes about 3 % of its core.
"""

from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterable, List, Tuple

#: seconds between two probe samples
PERIOD_S = 0.03
#: thread CPU seconds of one probe chunk on an uncontended core of a
#: 2-vCPU Intel Xeon virtual machine (the fastest tenth of 3000 chunks)
REFERENCE_CHUNK_S = 6.0e-4
STOP_TIMEOUT_S = 10.0


def _probe(cpu: int, out_path: str) -> None:
    """Sample on ``cpu`` until terminated, or orphaned: one ``<wall
    midpoint> <cpu s>`` line each ``PERIOD_S``."""
    os.sched_setaffinity(0, {cpu})
    import numpy

    parent = os.getppid()
    rng = numpy.random.default_rng(0)
    a = rng.standard_normal((20, 8, 8)) + 1j * rng.standard_normal((20, 8, 8))
    b = rng.standard_normal((20, 8, 1))
    with open(out_path, "w", encoding="utf-8", buffering=1) as out:
        while os.getppid() == parent:
            wall = time.time()
            cpu_s = time.thread_time()
            for _ in range(10):
                numpy.linalg.solve(a, b)
                counts = {}
                for index in range(200):
                    counts[index % 17] = counts.get(index % 17, 0) + index
            cpu_s = time.thread_time() - cpu_s
            out.write(f"{(wall + time.time()) / 2!r} {cpu_s!r}\n")
            time.sleep(PERIOD_S)


class _Series:
    """The samples of one core, in time order."""

    def __init__(self, path: Path):
        samples: List[Tuple[float, float]] = []
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) == 2:  # the last line may be cut short
                    samples.append((float(fields[0]), float(fields[1])))
        if not samples:
            raise RuntimeError(f"the speed probe wrote no sample to {path}")
        samples.sort()
        self.times = [wall for wall, _ in samples]
        self.chunks = [cpu for _, cpu in samples]

    def mean_chunk(self, start: float, end: float) -> float:
        """Mean chunk time over ``[start, end]`` widened by one period on
        each side, or of the nearest sample if none is that close."""
        low = bisect.bisect_left(self.times, start - PERIOD_S)
        high = bisect.bisect_right(self.times, end + PERIOD_S)
        if low == high:
            low = min(low, len(self.times) - 1)
            high = low + 1
        return statistics.fmean(self.chunks[low:high])


class SpeedProbe:
    """One probe process on each of ``cpus`` for one measured window.
    The samples go through files in ``out_dir``, removed on exit."""

    def __init__(self, out_dir: Path, cpus: Iterable[int]):
        self.out_dir = out_dir
        self.cpus = sorted(cpus)
        self.series: List[_Series] = []
        self._processes: List[subprocess.Popen] = []

    def _path(self, cpu: int) -> Path:
        return self.out_dir / f"speed-{os.getpid()}-cpu{cpu}.txt"

    def __enter__(self) -> "SpeedProbe":
        for cpu in self.cpus:
            self._processes.append(subprocess.Popen(
                [sys.executable, __file__, str(cpu), str(self._path(cpu))],
                stdin=subprocess.DEVNULL,
            ))
        # the first samples land before the caller's first timed item
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while not all(map(self._sampled, self.cpus)) and (
            time.monotonic() < deadline
        ):
            time.sleep(0.01)
        return self

    def _sampled(self, cpu: int) -> bool:
        try:
            return self._path(cpu).stat().st_size > 0
        except FileNotFoundError:
            return False

    def __exit__(self, *exc) -> None:
        for process in self._processes:
            process.terminate()
        for process in self._processes:
            try:
                process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        for cpu in self.cpus:
            if exc[0] is None:
                self.series.append(_Series(self._path(cpu)))
            self._path(cpu).unlink(missing_ok=True)

    def slowdown(self, start: float, end: float) -> float:
        """Probe time over ``[start, end]`` (wall clock), averaged over the
        cores, relative to the reference."""
        return statistics.fmean(
            series.mean_chunk(start, end) for series in self.series
        ) / REFERENCE_CHUNK_S

    def mean_slowdown(self) -> float:
        return self.slowdown(min(s.times[0] for s in self.series),
                             max(s.times[-1] for s in self.series))

    def reference_s(self, start: float, took: float) -> float:
        """``took`` wall seconds from ``start`` in reference seconds."""
        return took / self.slowdown(start, start + took)


if __name__ == "__main__":
    _probe(int(sys.argv[1]), sys.argv[2])
