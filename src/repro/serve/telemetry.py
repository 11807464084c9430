"""Serving telemetry: the one metrics front end.

The solve server's hot path is request latency, not tune time, so the
metrics of record change with it: percentile latency (p50/p95/p99),
cache hit/miss/fallback counters, queue depth, and plan hot-swap
events.  Everything here is cheap enough to sit on the request path —
a counter is one dict update and a histogram record one bisect plus one
increment, each under one lock — and the whole state exports as JSON
for dashboards or CI artifacts, or as Prometheus text through
:func:`repro.obs.export.prometheus_text`.

Two latency views coexist.  A :class:`~repro.obs.metrics.Histogram` is
cumulative — the whole lifetime of the server — which is the right
record for a benchmark report.  :class:`SlidingWindow` is *recent* — only the
samples inside the last ``window_s`` seconds count — which is the only
view an SLO controller may act on: a breach must clear again once the
slow samples age out, and a cumulative histogram never forgets.
Windows read time from the telemetry's injected clock, so SLO tests
drive them deterministically with a ``ManualClock``.

Failures the serving path swallows on purpose (a background tune, a
model-predicted fallback, a swap's trial-log row) go through
:meth:`Telemetry.failure`: each is counted and its record kept in a
bounded per-counter log, so what failed can be inspected afterwards.
"""

from __future__ import annotations

import json
import math
import threading
from collections import deque
from typing import Any, Deque

from repro.obs.metrics import Histogram
from repro.util.clock import MONOTONIC_CLOCK, Clock
from repro.util.errors import error_record

__all__ = ["TUNE_FAILURE_LIMIT", "SlidingWindow", "SwapEvent", "Telemetry"]

#: How many failure records a telemetry keeps per counter (the newest).
TUNE_FAILURE_LIMIT = 32


class SlidingWindow:
    """Exact percentiles over the samples of the last ``window_s`` seconds.

    Samples are (timestamp, value) pairs; every read first drops pairs
    older than the window, so a quiet period genuinely empties the
    window.  Percentiles sort the live samples — windows are bounded by
    ``max_samples`` (oldest evicted first), so the sort stays cheap even
    under sustained load.  Not thread-safe on its own;
    :class:`Telemetry` serializes access.
    """

    def __init__(self, window_s: float = 5.0, max_samples: int = 2048) -> None:
        if window_s <= 0:
            raise ValueError(f"window must be > 0 seconds, not {window_s}")
        self.window_s = float(window_s)
        self._samples: Deque[tuple[float, float]] = deque(maxlen=max_samples)

    def record(self, now: float, value: float) -> None:
        if value < 0:
            raise ValueError(f"sample must be >= 0, not {value}")
        self._samples.append((now, value))

    def _trim(self, now: float) -> None:
        horizon = now - self.window_s
        while self._samples and self._samples[0][0] < horizon:
            self._samples.popleft()

    def count(self, now: float) -> int:
        self._trim(now)
        return len(self._samples)

    def percentile(self, now: float, q: float) -> float:
        """Exact quantile ``q`` of the live samples (0.0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], not {q}")
        self._trim(now)
        if not self._samples:
            return 0.0
        values = sorted(v for _, v in self._samples)
        rank = max(0, min(len(values) - 1, math.ceil(q * len(values)) - 1))
        return values[rank]

    def to_dict(self, now: float) -> dict[str, Any]:
        return {
            "window_s": self.window_s,
            "count": self.count(now),
            "p50_s": self.percentile(now, 0.50),
            "p95_s": self.percentile(now, 0.95),
            "p99_s": self.percentile(now, 0.99),
        }


class SwapEvent:
    """One atomic plan replacement in the cache (telemetry record)."""

    __slots__ = ("seq", "key", "old_source", "new_source", "generation", "stale_served")

    def __init__(
        self,
        seq: int,
        key: str,
        old_source: str,
        new_source: str,
        generation: int,
        stale_served: int,
    ) -> None:
        self.seq = seq
        self.key = key
        self.old_source = old_source
        self.new_source = new_source
        self.generation = generation
        self.stale_served = stale_served

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "key": self.key,
            "old_source": self.old_source,
            "new_source": self.new_source,
            "generation": self.generation,
            "stale_served": self.stale_served,
        }


class Telemetry:
    """Thread-safe metric facade for one serving runtime.

    Counters (monotonic ints), gauges (last-write-wins floats), named
    latency histograms, named sliding windows (recent-percentile view
    for SLO control), a bounded log of plan swap events, and bounded
    per-counter logs of swallowed failures.  A :meth:`snapshot` is a
    plain dict — JSON-serializable as-is — taken under the lock, so it
    is internally consistent.

    A name is either a counter or a gauge, never both: Prometheus allows
    one type per metric family, so the clash raises ``ValueError``.

    ``clock`` timestamps window samples and window reads; the default
    real clock is right for production, tests inject a
    :class:`~repro.util.clock.ManualClock` so "five seconds later"
    is an ``advance(5)`` call, not a sleep.
    """

    def __init__(
        self,
        max_events: int = 256,
        clock: Clock | None = None,
        window_s: float = 5.0,
    ) -> None:
        self.clock = clock or MONOTONIC_CLOCK
        self.window_s = window_s
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}
        self._windows: dict[str, SlidingWindow] = {}
        self._failures: dict[str, Deque[dict[str, Any]]] = {}
        self._events: Deque[SwapEvent] = deque(maxlen=max_events)
        self._seq = 0

    # -- recording (the ``_locked`` helpers run under ``self._lock``) -----

    def _incr_locked(self, name: str, by: int) -> None:
        if name not in self._counters:
            if name in self._gauges:
                raise ValueError(f"metric {name!r} already registered as a gauge")
            self._counters[name] = 0
        self._counters[name] += by

    def _record_locked(self, name: str, seconds: float) -> None:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram()
        hist.record(seconds)

    def incr(self, name: str, by: int = 1) -> None:
        if by < 0:
            raise ValueError(f"counter increment must be >= 0, not {by}")
        with self._lock:
            self._incr_locked(name, by)

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            if name in self._counters:
                raise ValueError(f"metric {name!r} already registered as a counter")
            self._gauges[name] = float(value)

    def observe(self, name: str, seconds: float) -> None:
        with self._lock:
            self._record_locked(name, seconds)

    def failure(
        self, counter: str, exc: BaseException, **context: Any
    ) -> dict[str, Any]:
        """Count a swallowed failure and keep its record.

        Increments ``counter`` and appends ``{**error_record(exc),
        **context}`` — the exception ``type``, a bounded ``message`` and
        whatever the caller names (a key label, a trace id) — to that
        counter's log of the newest :data:`TUNE_FAILURE_LIMIT` records,
        read back by :meth:`failures`.  Returns the record.
        """
        record = {**error_record(exc), **context}
        with self._lock:
            self._incr_locked(counter, 1)
            log = self._failures.get(counter)
            if log is None:
                log = self._failures[counter] = deque(maxlen=TUNE_FAILURE_LIMIT)
            log.append(record)
        return record

    def observe_windowed(
        self, name: str, seconds: float, window_s: float | None = None
    ) -> None:
        """Record into the cumulative histogram *and* the sliding window.

        One call keeps the two latency views in step: benchmarks read
        the histogram, the SLO controller reads the window.
        """
        now = self.clock.now()
        with self._lock:
            self._record_locked(name, seconds)
            window = self._windows.get(name)
            if window is None:
                window = self._windows[name] = SlidingWindow(
                    window_s if window_s is not None else self.window_s
                )
            window.record(now, seconds)

    def window_percentile(self, name: str, q: float) -> float:
        """Recent quantile ``q`` for window ``name`` (0.0 when unknown)."""
        now = self.clock.now()
        with self._lock:
            window = self._windows.get(name)
            return window.percentile(now, q) if window is not None else 0.0

    def window_count(self, name: str) -> int:
        """Live sample count for window ``name`` (0 when unknown)."""
        now = self.clock.now()
        with self._lock:
            window = self._windows.get(name)
            return window.count(now) if window is not None else 0

    def swap_event(
        self,
        key: str,
        old_source: str,
        new_source: str,
        generation: int,
        stale_served: int = 0,
    ) -> SwapEvent:
        with self._lock:
            self._seq += 1
            event = SwapEvent(
                self._seq, key, old_source, new_source, generation, stale_served
            )
            self._events.append(event)
            self._incr_locked("plan_swaps", 1)
            return event

    # -- reading ----------------------------------------------------------

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def gauge(self, name: str) -> float:
        with self._lock:
            return self._gauges.get(name, 0.0)

    def percentile(self, histogram: str, q: float) -> float:
        with self._lock:
            hist = self._histograms.get(histogram)
            return hist.percentile(q) if hist is not None else 0.0

    @property
    def swap_events(self) -> list[SwapEvent]:
        with self._lock:
            return list(self._events)

    def failures(self, counter: str) -> list[dict[str, Any]]:
        """The kept records of :meth:`failure` calls on ``counter``,
        oldest first (``[]`` when there were none)."""
        with self._lock:
            return list(self._failures.get(counter, ()))

    def snapshot(self) -> dict[str, Any]:
        """A consistent, JSON-serializable view of every metric."""
        now = self.clock.now()
        with self._lock:
            return {
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "latency": {
                    name: hist.to_dict()
                    for name, hist in sorted(self._histograms.items())
                },
                "windows": {
                    name: window.to_dict(now)
                    for name, window in sorted(self._windows.items())
                },
                "swap_events": [e.to_dict() for e in self._events],
            }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent)
