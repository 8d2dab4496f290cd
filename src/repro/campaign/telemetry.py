"""Campaign observability: structured events, counters, progress line.

A :class:`CampaignTelemetry` instance rides along a campaign and

* appends one JSON object per event to a **JSONL trace** (when a path is
  given) — ``campaign_start``, ``unit_done`` / ``unit_failed`` per work
  unit, ``campaign_end`` with the aggregate counters;
* maintains in-memory **counters** (units done/total, cache hits, AC
  solves, retries, failures, wall/CPU seconds) that tests and callers
  can assert on — a warm-cache re-run, for instance, must end with
  ``cache_hits == units_total`` and ``solves == 0``;
* optionally paints a single-line **terminal progress** indicator.

The instance is thread-safe (executors may deliver outcomes from
callback contexts) and usable as a context manager so the trace file is
always closed.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path
from typing import IO, Optional, Union

from .executor import UnitOutcome


class CampaignTelemetry:
    """Event sink and counter board for one (or more) campaign runs.

    Parameters
    ----------
    trace_path:
        JSONL file to append events to (``None`` disables tracing).
    progress:
        Paint a live one-line progress indicator to ``stream``.
    stream:
        Progress destination (default ``sys.stderr``).
    """

    def __init__(
        self,
        trace_path: Optional[Union[str, Path]] = None,
        progress: bool = False,
        stream: Optional[IO[str]] = None,
    ):
        self.trace_path = Path(trace_path) if trace_path else None
        self.progress = progress
        self.stream = stream if stream is not None else sys.stderr
        self.counters = {
            "units_total": 0,
            "units_done": 0,
            "cache_hits": 0,
            "solves": 0,
            "factorizations": 0,
            "sm_fallbacks": 0,
            "retries": 0,
            "failures": 0,
            "ndetect_covers": 0,
            "ndetect_fragile_entries": 0,
        }
        self._lock = threading.Lock()
        self._trace: Optional[IO[str]] = None
        self._t0 = time.perf_counter()
        self._cpu0 = time.process_time()
        self._progress_painted = False
        if self.trace_path is not None:
            self.trace_path.parent.mkdir(parents=True, exist_ok=True)
            self._trace = open(self.trace_path, "a", encoding="utf-8")

    # ------------------------------------------------------------------
    def __enter__(self) -> "CampaignTelemetry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        with self._lock:
            self._finish_progress_locked()
            if self._trace is not None:
                self._trace.close()
                self._trace = None

    # ------------------------------------------------------------------
    def emit(self, event: str, **fields) -> None:
        """Append one structured event to the trace (if tracing)."""
        with self._lock:
            self._emit_locked(event, fields)

    def _emit_locked(self, event: str, fields: dict) -> None:
        if self._trace is None:
            return
        record = {"event": event, "t_s": self._elapsed()}
        record.update(fields)
        self._trace.write(json.dumps(record) + "\n")
        self._trace.flush()

    def _elapsed(self) -> float:
        return round(time.perf_counter() - self._t0, 6)

    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Called between the steps of an operation; does nothing here.

        The job service's telemetry raises from it when its job is
        cancelled or past its deadline.
        """

    def campaign_start(self, plan, executor_name: str, jobs: int = 1) -> None:
        """Record the start of any kind's plan (its units and describe())."""
        with self._lock:
            self._t0 = time.perf_counter()
            self._cpu0 = time.process_time()
            self.counters["units_total"] += len(plan.units)
            self._emit_locked(
                "campaign_start",
                {
                    "units": len(plan.units),
                    "plan": plan.describe(),
                    "executor": executor_name,
                    "jobs": jobs,
                },
            )

    def unit_outcome(self, outcome: UnitOutcome) -> None:
        """Record one finished (or failed) unit."""
        result, unit = outcome.result, outcome.unit
        solves, factorizations, sm_fallbacks = outcome.work
        with self._lock:
            counters = self.counters
            counters["units_done"] += 1
            counters["retries"] += max(0, outcome.attempts - 1)
            counters["cache_hits"] += int(outcome.from_cache)
            counters["solves"] += solves
            counters["factorizations"] += factorizations
            counters["sm_fallbacks"] += sm_fallbacks
            fields = {
                "unit": unit.unit_id,
                "config": unit.label,
                "key": unit.key[:12],
                "n_faults": unit.size,
                "cache_hit": outcome.from_cache,
                "solves": solves,
                "factorizations": factorizations,
                "sm_fallbacks": sm_fallbacks,
                "attempts": outcome.attempts,
                "degraded": outcome.degraded,
                "wall_s": round(outcome.wall_s, 6),
            }
            if result is None:
                counters["failures"] += 1
                fields["error"] = repr(outcome.error)
                self._emit_locked("unit_failed", fields)
            else:
                self._emit_locked("unit_done", fields)
            self._paint_progress_locked()

    def campaign_end(self) -> None:
        with self._lock:
            summary = self.summary()
            self._emit_locked("campaign_end", summary)
            self._finish_progress_locked()

    def ndetect_cover(
        self, n_detect: int, cover_size: int, n_fragile_entries: int
    ) -> None:
        """Record one n-detection cover solve (post-campaign analysis).

        ``ndetect_covers`` counts solved covers; ``ndetect_fragile_entries``
        accumulates the selected d_ij = 1 entries whose robustness margin
        is non-positive (see :mod:`repro.core.ndetect`).  Both surface in
        the service's ``/metrics`` snapshot.
        """
        with self._lock:
            self.counters["ndetect_covers"] += 1
            self.counters["ndetect_fragile_entries"] += n_fragile_entries
            self._emit_locked(
                "ndetect_cover",
                {
                    "n_detect": n_detect,
                    "cover_size": cover_size,
                    "fragile_entries": n_fragile_entries,
                },
            )

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A lock-consistent copy of the counters dict.

        This is the supported way to read the counters from another
        thread — the ``/metrics`` endpoint of :mod:`repro.service`
        scrapes a telemetry instance that campaign worker threads are
        concurrently updating, and a plain ``dict(telemetry.counters)``
        could observe a half-applied outcome.
        """
        with self._lock:
            return dict(self.counters)

    def summary(self) -> dict:
        """Aggregate counters plus wall/CPU time (for the end event).

        Called with :attr:`_lock` held from :meth:`campaign_end`; use
        :meth:`snapshot` for a race-free read from other threads.
        """
        summary = dict(self.counters)
        summary["wall_s"] = self._elapsed()
        summary["cpu_s"] = round(time.process_time() - self._cpu0, 6)
        return summary

    # ------------------------------------------------------------------
    def _paint_progress_locked(self) -> None:
        if not self.progress:
            return
        counters = self.counters
        line = (
            f"[campaign] {counters['units_done']}/{counters['units_total']}"
            f" units | {counters['cache_hits']} cached | "
            f"{counters['solves']} solves | "
            f"{counters['retries']} retries | {self._elapsed():.1f}s"
        )
        self.stream.write("\r" + line.ljust(72))
        self.stream.flush()
        self._progress_painted = True

    def _finish_progress_locked(self) -> None:
        if self._progress_painted:
            self.stream.write("\n")
            self.stream.flush()
            self._progress_painted = False
