"""Order statistics shared by the runner, the compare tool and the tests.

Every quartile here is ``statistics.quantiles(values, n=4)`` (the
"exclusive" method), the same estimator the run-to-run spread of the
benchmark is judged with.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), interpolating linearly between the
    closest ranks (numpy's default), so ``p50`` is the median."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q1, median, q3)


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(median)


@dataclass
class Metric:
    """One reported number plus the in-run sample it summarises."""

    name: str
    unit: str
    value: float
    samples: List[float] = field(default_factory=list)

    def row(self) -> str:
        """One line of the human-readable table."""
        if self.samples:
            q1, median, q3 = quartiles(self.samples)
            spread = f"n={len(self.samples):<4d} median={median:<11.6g} " \
                f"q1={q1:<11.6g} q3={q3:<11.6g}"
        else:
            spread = "n=1"
        return f"{self.name:<36s} {self.value:<13.6g} {self.unit:<6s} {spread}"


def metrics_json(metrics: Sequence[Metric]) -> Dict[str, dict]:
    """The ``metrics`` object of the result line, digits untouched."""
    return {
        metric.name: {"value": float(metric.value), "unit": metric.unit}
        for metric in metrics
    }


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when there is nothing to divide."""
    return numerator / denominator if denominator else 0.0


def median_or_zero(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile_or_zero(values: Sequence[float], q: float) -> float:
    return percentile(values, q) if values else 0.0


def parse_seeds(text: str) -> List[int]:
    """``"0-4"`` or ``"0,3,7"`` (or a mix) as a list of seeds."""
    seeds: List[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            start, stop = part.split("-", 1)
            seeds.extend(range(int(start), int(stop) + 1))
        else:
            seeds.append(int(part))
    return seeds
