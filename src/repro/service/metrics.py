"""Prometheus-text metrics for the job server (stdlib only).

The exposition format is the stable ``text/plain; version=0.0.4``
contract every Prometheus-compatible scraper understands: ``# HELP`` /
``# TYPE`` preambles, one ``name{labels} value`` sample per line,
histograms as cumulative ``_bucket`` series plus ``_sum`` / ``_count``.

:class:`ServiceMetrics` owns the HTTP-layer series (request counts and
per-endpoint latency histograms) and renders the fleet-level series
from data handed in at scrape time: the campaign counters come from
``CampaignTelemetry.snapshot()`` (the lock-consistent read added for
exactly this endpoint), queue depth and per-state job counts from the
scheduler.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple

#: default latency buckets (seconds) — tuned for sub-second API calls
#: riding in front of multi-second simulation jobs
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)


class Histogram:
    """A fixed-bucket cumulative histogram (Prometheus semantics)."""

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_BUCKETS):
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * len(self.buckets)
        self.inf_count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                break
        else:
            self.inf_count += 1
        self.total += value

    @property
    def count(self) -> int:
        return sum(self.counts) + self.inf_count

    def cumulative(self) -> List[Tuple[str, int]]:
        """``(le, cumulative_count)`` rows including the +Inf bucket."""
        rows = []
        running = 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            rows.append((format_float(bound), running))
        rows.append(("+Inf", running + self.inf_count))
        return rows


def format_float(value: float) -> str:
    """Compact float formatting (``0.25`` not ``0.250000``)."""
    text = f"{value:g}"
    return text


def _labels(pairs: Dict[str, str]) -> str:
    if not pairs:
        return ""
    inner = ",".join(
        f'{name}="{value}"' for name, value in sorted(pairs.items())
    )
    return "{" + inner + "}"


class ServiceMetrics:
    """Thread-safe HTTP metrics plus the ``/metrics`` renderer."""

    def __init__(self):
        self._lock = threading.Lock()
        self._requests: Dict[Tuple[str, str, int], int] = {}
        self._latency: Dict[str, Histogram] = {}
        self._started = time.time()

    # ------------------------------------------------------------------
    def observe_request(
        self, method: str, route: str, status: int, duration_s: float
    ) -> None:
        """Record one handled request under its *route template*.

        ``route`` is the normalised pattern (``/jobs/{id}``), not the
        raw path — per-id label values would explode series cardinality.
        """
        with self._lock:
            key = (method, route, status)
            self._requests[key] = self._requests.get(key, 0) + 1
            histogram = self._latency.get(route)
            if histogram is None:
                histogram = self._latency[route] = Histogram()
            histogram.observe(duration_s)

    # ------------------------------------------------------------------
    def render(
        self,
        telemetry_counters: Optional[Dict[str, int]] = None,
        queue_depth: Optional[int] = None,
        jobs_by_state: Optional[Dict[str, int]] = None,
        extra_gauges: Optional[Dict[str, float]] = None,
        extra_counters: Optional[Dict[str, float]] = None,
    ) -> str:
        """The full exposition document, one scrape's worth."""
        lines: List[str] = []

        def emit(name: str, kind: str, help_text: str,
                 samples: Iterable[Tuple[str, float]]) -> None:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for labels, value in samples:
                lines.append(f"{name}{labels} {format_float(value)}")

        emit(
            "repro_uptime_seconds", "gauge",
            "Seconds since the service started.",
            [("", time.time() - self._started)],
        )

        if telemetry_counters:
            help_by_counter = {
                "units_total": "Work units admitted to campaigns.",
                "units_done": "Work units completed (including cache hits).",
                "cache_hits": "Work units satisfied from the result cache.",
                "solves": "AC solves performed (0 on a fully warm cache).",
                "factorizations": "LU factorizations performed by AC solves.",
                "sm_fallbacks":
                    "Grid points the fault simulator re-solved exactly "
                    "where its Sherman-Morrison certificate did not hold.",
                "retries": "Work-unit retry attempts.",
                "failures": "Work units that failed terminally.",
                "ndetect_covers": "n-Detection covers computed by jobs.",
                "ndetect_fragile_entries":
                    "Fragile detections (margin <= 0) across covers.",
            }
            for counter, value in sorted(telemetry_counters.items()):
                emit(
                    f"repro_campaign_{counter}", "counter",
                    help_by_counter.get(counter, f"Campaign {counter}."),
                    [("", value)],
                )

        if queue_depth is not None:
            emit(
                "repro_queue_depth", "gauge",
                "Jobs queued and not yet running.",
                [("", queue_depth)],
            )

        if jobs_by_state:
            emit(
                "repro_jobs", "gauge",
                "Jobs known to the scheduler, by lifecycle state.",
                [
                    (_labels({"state": state}), count)
                    for state, count in sorted(jobs_by_state.items())
                ],
            )

        # extra samples may arrive pre-labelled (``name{label="x"}``);
        # group them under their bare metric name so HELP/TYPE
        # preambles stay one-per-metric
        def grouped(extra: Optional[Dict[str, float]]):
            by_metric: Dict[str, List[Tuple[str, float]]] = {}
            for name, value in sorted((extra or {}).items()):
                bare, brace, labels = name.partition("{")
                by_metric.setdefault(bare, []).append(
                    (brace + labels if brace else "", value)
                )
            return sorted(by_metric.items())

        for bare, samples in grouped(extra_gauges):
            emit(bare, "gauge", f"{bare}.", samples)
        for bare, samples in grouped(extra_counters):
            emit(bare, "counter", f"{bare}.", samples)

        with self._lock:
            request_rows = [
                (
                    _labels(
                        {
                            "method": method,
                            "route": route,
                            "status": str(status),
                        }
                    ),
                    count,
                )
                for (method, route, status), count in sorted(
                    self._requests.items()
                )
            ]
            latency = {
                route: (histogram.cumulative(), histogram.total,
                        histogram.count)
                for route, histogram in sorted(self._latency.items())
            }

        if request_rows:
            emit(
                "repro_http_requests_total", "counter",
                "HTTP requests handled, by method, route and status.",
                request_rows,
            )

        if latency:
            name = "repro_http_request_duration_seconds"
            lines.append(
                f"# HELP {name} HTTP request latency by route."
            )
            lines.append(f"# TYPE {name} histogram")
            for route, (rows, total, count) in latency.items():
                for le, cumulative_count in rows:
                    labels = _labels({"route": route, "le": le})
                    lines.append(f"{name}_bucket{labels} {cumulative_count}")
                labels = _labels({"route": route})
                lines.append(f"{name}_sum{labels} {format_float(total)}")
                lines.append(f"{name}_count{labels} {count}")

        return "\n".join(lines) + "\n"


#: sample-name prefixes that are meaningful when summed across replicas
AGGREGATABLE_PREFIXES = (
    "repro_campaign_",
    "repro_queue_depth",
    "repro_jobs{",
    "repro_jobs ",
    "repro_workers",
    "repro_tombstones",
)


def aggregate_metrics(
    documents: Iterable[str],
    prefixes: Tuple[str, ...] = AGGREGATABLE_PREFIXES,
) -> Dict[str, float]:
    """Sum the additive samples of several replicas' ``/metrics`` texts.

    Only counter/gauge families whose cross-replica sum is meaningful
    (campaign counters, queue depth, worker and job-state gauges) are
    kept — latency histograms and uptime gauges are not additive and
    are dropped.  Used by the router's aggregated ``/metrics`` view.
    """
    totals: Dict[str, float] = {}
    for text in documents:
        for name, value in parse_metrics(text).items():
            sample = name if name.endswith("}") else name + " "
            if sample.startswith(prefixes):
                totals[name] = totals.get(name, 0.0) + value
    return totals


def parse_metrics(text: str) -> Dict[str, float]:
    """``name{labels} -> value`` for every sample line (test helper)."""
    values: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            values[name] = float(value)
        except ValueError:
            continue
    return values
