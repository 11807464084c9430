"""The latency histogram every serving tier records into.

:class:`Histogram` is the one latency primitive: geometric buckets,
percentile estimates, and a ``to_dict`` summary that the serve
telemetry (:mod:`repro.serve.telemetry`) puts in its snapshot and the
Prometheus exporter renders as a summary.  Counters and gauges are
plain ``name -> value`` dicts inside
:class:`~repro.serve.telemetry.Telemetry`, the one metrics front end.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any

__all__ = ["Histogram", "PERCENTILES", "default_bounds"]

#: Default percentiles reported by snapshots.
PERCENTILES = (0.50, 0.95, 0.99)


def default_bounds() -> tuple[float, ...]:
    """Geometric bucket upper bounds from 1 microsecond to ~1000 s.

    Nine decades at 8 buckets/decade keeps relative error per bucket
    under ~33% — plenty for tail-latency reporting — with 72 buckets.
    """
    return tuple(1e-6 * 10 ** (i / 8) for i in range(1, 73))


class Histogram:
    """Fixed-bucket histogram with percentile estimation.

    Values are durations in seconds.  Percentiles interpolate to the
    geometric midpoint of the selected bucket, so estimates are stable
    under merge and never exceed the observed maximum by more than one
    bucket width.  Not thread-safe on its own; owners (e.g. the serve
    :class:`~repro.serve.telemetry.Telemetry`) serialize access.
    """

    __slots__ = ("bounds", "counts", "count", "sum", "max")

    def __init__(self, bounds: tuple[float, ...] | None = None) -> None:
        self.bounds = bounds if bounds is not None else default_bounds()
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted ascending")
        self.counts = [0] * (len(self.bounds) + 1)  # +1 overflow bucket
        self.count = 0
        self.sum = 0.0
        self.max = 0.0

    def record(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"latency must be >= 0, not {seconds}")
        self.counts[bisect_left(self.bounds, seconds)] += 1
        self.count += 1
        self.sum += seconds
        if seconds > self.max:
            self.max = seconds

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated latency at quantile ``q`` in [0, 1] (0.0 if empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], not {q}")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                if i >= len(self.bounds):
                    return self.max
                lo = self.bounds[i - 1] if i > 0 else self.bounds[i] / 10
                return min(math.sqrt(lo * self.bounds[i]), self.max)
        return self.max  # pragma: no cover - rank <= count by construction

    def to_dict(self, percentiles: tuple[float, ...] = PERCENTILES) -> dict[str, Any]:
        out: dict[str, Any] = {
            "count": self.count,
            "mean_s": self.mean,
            "max_s": self.max,
        }
        for q in percentiles:
            out[f"p{int(round(q * 100))}_s"] = self.percentile(q)
        return out
