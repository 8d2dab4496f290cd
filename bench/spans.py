"""In-memory spans recorded by the benchmark around calls into each layer.

A span is ``(id, parent, name, start, end, attrs)`` with times in
seconds on one clock.  Library workloads open spans with
:meth:`Tracer.span` around public calls (pass -> case -> layer call);
HTTP workloads add finished spans derived from server timestamps with
:meth:`Tracer.add`.  Spans stay in memory and are written as JSONL when
the run ends, so tracing does no I/O inside the measured region.

A disabled tracer hands out one shared no-op context manager, which is
what the untraced (end-to-end) runs use.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

_NOOP = contextlib.nullcontext()


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder for one single-threaded benchmark process."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def span(self, name: str, **attrs):
        """Context manager timing the enclosed block as a child span."""
        if not self.enabled:
            return _NOOP
        return self._open(name, attrs)

    @contextlib.contextmanager
    def _open(self, name: str, attrs: dict):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter(), 0.0,
                    attrs)
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, **attrs) -> int:
        """Record an already finished span; returns its id."""
        if not self.enabled:
            return -1
        span = Span(len(self.spans), parent, name, start, end, attrs)
        self.spans.append(span)
        return span.id

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def covered(interval: Tuple[float, float],
            children: Iterable[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    clipped = sorted(
        (max(lo, start), min(hi, end))
        for start, end in children
        if min(hi, end) > max(lo, start)
    )
    total = 0.0
    cursor = lo
    for start, end in clipped:
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """``span id -> duration minus the part its children cover``."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end)
            )
    return {
        span.id: span.duration
        - covered((span.start, span.end), children.get(span.id, ()))
        for span in spans
    }


def calibrate_overhead(repeats: int = 20000) -> float:
    """Seconds one enabled span costs, measured on this machine."""
    tracer = Tracer(enabled=True)
    start = time.perf_counter()
    for _ in range(repeats):
        with tracer.span("calibration"):
            pass
    return (time.perf_counter() - start) / repeats
