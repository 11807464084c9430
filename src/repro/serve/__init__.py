"""Solve-service runtime: batched, cache-warmed serving with background
tuning — single-process or horizontally sharded.

The paper's operational model — tune once, reuse the stored
configuration — becomes a serving layer here.  In one process, a
:class:`SolveServer` admits requests into a bounded queue, micro-batches
them per workload class, serves cold classes instantly from the
heuristic fallback while a background DP tune hot-swaps the real plan in
(**stale-while-tune**), degrades to a lower-accuracy plan when a class's
windowed p99 breaches its SLO (**SLO-driven plan selection**, reverting
on recovery), and exports latency/cache/swap telemetry as JSON.

Scaled out, a :class:`~repro.serve.frontdoor.FrontDoor` routes requests
by (operator, level, ndim) across N shard-worker processes
(:mod:`repro.serve.sharding`), moving grid payloads through
shared-memory slot pools (:mod:`repro.serve.shm`) so no array is ever
pickled on the hot path, surviving worker crashes by resubmitting
exactly the unanswered requests, and optionally resizing the tier with
an :class:`~repro.serve.sharding.Autoscaler`.

Modules: :mod:`~repro.serve.server` (the in-process serving loop),
:mod:`~repro.serve.cache` (plan cache + SLO degrade/restore),
:mod:`~repro.serve.batching` (bounded queue, micro-batches),
:mod:`~repro.serve.telemetry` (histograms, sliding windows, swap log),
:mod:`~repro.serve.shm` (zero-copy payload transport),
:mod:`~repro.serve.sharding` (shard workers, codec, autoscaler),
:mod:`~repro.serve.frontdoor` (multi-process routing tier),
:mod:`~repro.serve.loadgen` (seeded closed-loop traffic).

Quickstart::

    from repro import core
    with core.open_server(machine="intel", workers=2) as server:
        server.warm("unbiased", level=5)
        result = server.solve(core.poisson_problem("unbiased", n=33), 1e5)
        print(result.plan_source, server.stats()["counters"])

    # sharded: same calls, N processes behind a front door
    with core.open_server(shards=4) as door:
        door.warm("unbiased", level=5)
        result = door.solve(core.poisson_problem("unbiased", n=33), 1e5)
"""

from repro.serve.batching import Backpressure, RequestQueue
from repro.serve.cache import CacheEntry, PlanCache, ServeKey
from repro.serve.frontdoor import FrontDoor, FrontDoorResult
from repro.serve.loadgen import run_load
from repro.serve.server import ServeResult, SolveRequest, SolveServer
from repro.serve.sharding import Autoscaler, ShardWorkerConfig, shard_key
from repro.serve.shm import SlotPool
from repro.obs.metrics import Histogram
from repro.serve.telemetry import SlidingWindow, SwapEvent, Telemetry

__all__ = [
    "Autoscaler",
    "Backpressure",
    "CacheEntry",
    "FrontDoor",
    "FrontDoorResult",
    "Histogram",
    "PlanCache",
    "RequestQueue",
    "ServeKey",
    "ServeResult",
    "ShardWorkerConfig",
    "SlidingWindow",
    "SlotPool",
    "SolveRequest",
    "SolveServer",
    "SwapEvent",
    "Telemetry",
    "run_load",
    "shard_key",
]
