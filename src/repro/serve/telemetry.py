"""Serving telemetry: the one metrics front end.

The solve server's hot path is request latency, not tune time, so the
metrics of record change with it: percentile latency (p50/p95/p99),
cache hit/miss/fallback counters, queue depth, and plan hot-swap
events.  Everything here is cheap enough to sit on the request path —
a counter is one dict update and a histogram record one bisect plus one
increment, each under one lock — and the whole state exports as JSON
for dashboards or CI artifacts, or as Prometheus text through
:func:`repro.obs.export.prometheus_text`.

Latency histograms (:class:`~repro.obs.metrics.Histogram`) are
cumulative over the whole lifetime of the server, the right record for
a benchmark report.

Failures the serving path swallows on purpose (a background tune or a
model-predicted fallback) go through :meth:`Telemetry.failure`: each is
counted and its record kept in a bounded per-counter log, so what
failed can be inspected afterwards.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Any, Deque

from repro.obs.metrics import Histogram
from repro.util.errors import error_record

__all__ = ["TUNE_FAILURE_LIMIT", "SwapEvent", "Telemetry"]

#: How many failure records a telemetry keeps per counter (the newest).
TUNE_FAILURE_LIMIT = 32


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
    latency histograms, a bounded log of plan swap events, and bounded
    per-counter logs of swallowed failures.  A :meth:`snapshot` is a
    plain dict — JSON-serializable as-is — taken under the lock, so it
    is internally consistent.

    A name is either a counter or a gauge, never both: Prometheus allows
    one type per metric family, so the clash raises ``ValueError``.
    """

    def __init__(self, max_events: int = 256) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}
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
        with self._lock:
            return {
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "latency": {
                    name: hist.to_dict()
                    for name, hist in sorted(self._histograms.items())
                },
                "swap_events": [e.to_dict() for e in self._events],
            }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent)
