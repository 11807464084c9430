"""Shared machinery: closed-loop rounds, statistics and layer probes.

Nothing here reaches into the program's hot paths on an untraced run.
On a traced run, :class:`Probes` wraps a few of the program's functions
with timers owned by this file, so each layer is measured from outside
at its public boundary; the wrappers are removed when the run ends.
"""

from __future__ import annotations

import math
import os
import threading
import time
from collections import deque
from typing import Any, Callable, Iterable, Sequence

import numpy as np


class HostSpeed:
    """How fast this host runs right now, relative to a fixed reference.

    The probe is a fixed mix of Python dict traffic and small numpy
    stencil updates, independent of the program.  On this host the
    speed of single-threaded work drifts by up to ~1.7x over tens of
    seconds and minutes (the vCPUs are shared), which no affordable run
    length averages away.  The probe's median time tracked it with a
    correlation of 0.97 over 10-s windows of level-7 solves and 0.87
    over 12-s windows of tunes, and scaling by it halved the run-to-run
    spread of solve-fine and tune-cold.  Single-threaded timings are
    divided by :meth:`factor` (throughputs multiplied), so they read as
    seconds at the reference speed.  Probe only while the program is
    idle, or the probe measures the program's own load.
    """

    #: probe time at the reference speed (the fast end of this host)
    REFERENCE_S = 1.0e-3

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.random((129, 129))
        self._b = rng.random((129, 129))
        self._d = {i: float(i) for i in range(2000)}
        self.samples: list[float] = []

    def probe(self, reps: int = 3) -> None:
        a, b, d = self._a, self._b, self._d
        for _ in range(reps):
            t0 = time.perf_counter()
            acc = 0.0
            for i in range(3000):
                acc += d[i % 2000]
            for _ in range(15):
                c = a[1:-1, 1:-1] * 4.0
                c -= a[:-2, 1:-1]
                c -= a[2:, 1:-1]
                c += b[1:-1, 1:-1]
            self.samples.append(time.perf_counter() - t0)

    def factor(self) -> float:
        """Median probe time over the reference (> 1: slower host)."""
        return float(np.median(self.samples)) / self.REFERENCE_S


def probing(make_round: Callable[[int], list], speed: HostSpeed) -> Callable[[int], list]:
    """``make_round`` that first probes the host speed (single client:
    the program is idle between rounds)."""

    def make(r: int) -> list:
        speed.probe()
        return make_round(r)

    return make


def pin_one_cpu() -> set[int]:
    """Pin the calling thread to the lowest CPU it may use; returns the
    previous CPU set (for :func:`unpin`).

    On this host the scheduler migrates a lone busy thread between two
    vCPUs that run at different speeds (a level-7 solve took 11.4 ms on
    one and 7.5-9 ms on the other, measured alternately), so an unpinned
    single-threaded phase reads whatever mix it happened to get.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    return allowed


def unpin(allowed: set[int]) -> None:
    os.sched_setaffinity(0, allowed)


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (numpy's default method)."""
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def hd_quantile(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of quantile ``q``: a Beta-weighted mean of
    all order statistics, steadier than the one or two order statistics
    a plain quantile reads when the values form a few distinct classes."""
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=np.float64))
    n = len(x)
    edges = betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), x))


def geomean(values: Iterable[float]) -> float:
    vals = [float(v) for v in values]
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": float(value), "unit": unit}


class RoundFeeder:
    """Hands out operations in whole rounds until the deadline passes.

    A new round starts only while time remains (the first
    ``min_rounds`` always start); once started, every operation of the
    round is handed out.
    Every run therefore attempts a whole number of identical rounds, so
    a deterministic failure is exactly the same share of the attempts
    in every run.  Items are ``(round, op)``; callers report each
    finished op with :meth:`finished`.  A round is made only once every
    op of the last one has finished, so ``make_round`` runs while the
    program is idle (where :func:`probing` times the host).
    """

    def __init__(self, make_round: Callable[[int], list], seconds: float,
                 min_rounds: int = 1) -> None:
        self._make_round = make_round
        self._seconds = seconds
        self._min_rounds = min_rounds
        self._cond = threading.Condition()
        self._pending: deque = deque()
        self._inflight = 0
        self.rounds = 0
        self.deadline = math.inf

    def start(self) -> float:
        now = time.perf_counter()
        self.deadline = now + self._seconds
        return now

    def next(self) -> tuple[int, Any] | None:
        with self._cond:
            while not self._pending:
                if self._inflight:
                    self._cond.wait()
                    continue
                if self.rounds >= self._min_rounds and time.perf_counter() >= self.deadline:
                    return None
                self._pending.extend((self.rounds, op) for op in self._make_round(self.rounds))
                self.rounds += 1
            self._inflight += 1
            return self._pending.popleft()

    def finished(self) -> None:
        with self._cond:
            self._inflight -= 1
            if not self._inflight:
                self._cond.notify_all()


def closed_loop(
    feeder: RoundFeeder,
    call: Callable[[Any], Any],
    after: Callable[[tuple[int, Any], Any, float], None],
    clients: int = 1,
) -> tuple[float, int]:
    """Run ``clients`` closed-loop callers over ``feeder``.

    Each caller takes the next ``(round, op)`` and times ``call(op)``
    around the call (client-side latency); ``after((round, op), result,
    seconds)`` then runs outside the timed interval.  Returns the
    phase's wall time, from start to the last completion, and the
    number of operations.
    """
    done: list[int] = []
    errors: list[BaseException] = []

    def client() -> None:
        clock = time.perf_counter
        count = 0
        try:
            while True:
                item = feeder.next()
                if item is None:
                    done.append(count)
                    return
                try:
                    t0 = clock()
                    out = call(item[1])
                    seconds = clock() - t0
                    after(item, out, seconds)
                finally:
                    feeder.finished()
                count += 1
        except BaseException as exc:  # reported on the main thread
            errors.append(exc)

    started = feeder.start()
    if clients == 1:
        client()
    else:
        threads = [threading.Thread(target=client, name=f"bench-client-{i}")
                   for i in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise errors[0]
    return elapsed, sum(done)


class OpTimes:
    """Client latencies of a run, pooled over its rounds.

    Quantiles (:meth:`quantile_ms`) are Harrell-Davis estimates over the
    pooled latencies.  Every run attempts whole rounds of the same
    operations, so each operation carries the same weight in every run.
    Over six seeds each this pooled estimate spread 2-7 % between runs,
    where quantiles of a per-operation median profile spread 5-20 %: on
    serve-mixed one operation's latency depends on what the other client
    runs beside it, and its median over the rounds flips between modes.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.samples: list[float] = []

    def add(self, seconds: float) -> None:
        with self._lock:
            self.samples.append(seconds)

    def quantile_ms(self, q: float) -> float:
        return hd_quantile(self.samples, q) * 1e3


class Probes:
    """Timers wrapped around the program's layer boundaries (traced runs).

    ``wrap(owner, name, key)`` replaces ``owner.name`` with a wrapper
    that adds the call's duration to ``totals[key]``, counts it in
    ``calls[key]`` and keeps it in ``durations[key]``; ``on_result`` may add counters derived from the
    arguments and the returned value.  ``restore`` puts every original
    back.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._saved: list[tuple[Any, str, Any]] = []
        self.totals: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.durations: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}

    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0.0) + amount

    def wrap(
        self,
        owner: Any,
        name: str,
        key: str,
        on_result: Callable[..., None] | None = None,
        before: Callable[..., Any] | None = None,
    ) -> None:
        original = getattr(owner, name)
        own = not isinstance(owner, type) or name in owner.__dict__
        probes = self

        def timed(*args: Any, **kwargs: Any) -> Any:
            token = before(*args, **kwargs) if before is not None else None
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                with probes._lock:
                    probes.totals[key] = probes.totals.get(key, 0.0) + dt
                    probes.calls[key] = probes.calls.get(key, 0) + 1
                    probes.durations.setdefault(key, []).append(dt)
            if on_result is not None:
                on_result(result, token, *args, **kwargs)
            return result

        self._saved.append((owner, name, original if own else None))
        setattr(owner, name, timed)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            if original is None:  # inherited: drop the shadowing wrapper
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def total(self, key: str) -> float:
        return self.totals.get(key, 0.0)

    def ncalls(self, key: str) -> int:
        return self.calls.get(key, 0)


def self_times(spans: list) -> dict[str, float]:
    """Self time per span name: duration minus the part its children cover.

    Children of one parent run inside it one after another on one
    thread here, so the covered part is the sum of their durations.
    """
    child_time: dict[str, float] = {}
    for span in spans:
        if span.parent_id is not None and span.end_s is not None:
            child_time[span.parent_id] = child_time.get(span.parent_id, 0.0) + span.duration_s
    out: dict[str, float] = {}
    for span in spans:
        if span.end_s is None:
            continue
        own = span.duration_s - child_time.get(span.span_id, 0.0)
        out[span.name] = out.get(span.name, 0.0) + own
    return out
