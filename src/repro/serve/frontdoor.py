"""The front door: one process routing solves across shard workers.

:class:`FrontDoor` is the client-facing half of the horizontally scaled
serving tier.  It owns the shared-memory slot pools
(:mod:`repro.serve.shm`), spawns N shard workers
(:func:`repro.serve.sharding.shard_worker_main`), and routes each
request by its shard key — ``(operator, level, ndim)`` — so every
worker sees a stable subset of the traffic and its plan cache stays
hot for exactly that subset.

The request path is copy-once, pickle-never:

1. ``submit`` acquires a slot in the pool for the request's shape and
   writes ``b`` + boundary into it (the one unavoidable copy, into
   shared pages both processes map);
2. a ~200-byte JSON control message names (pool, slot, shape) to the
   worker, which solves **in place** into the slot's ``x`` region;
3. the worker's reply is another small JSON message; the front door
   copies the solution out of the slot and releases it.

Routing is *sticky least-loaded*: the first time a shard key appears it
is pinned to the worker currently carrying the fewest keys (ties break
to the lowest index), and it stays there — deterministic, balanced for
benchmarks, and cache-friendly for workers.

Worker death is survivable by construction.  The payload lives in the
front door's shared memory and the request's control message is kept
until its response arrives, so when a worker dies (the reader thread
sees EOF *after* draining every response the worker did send — pipes
preserve written data past writer death) the front door respawns the
shard and resubmits exactly the still-unanswered messages.  Responses
are deduplicated through the pending map: the first reply for a request
id resolves and removes it, any later reply for the same id is counted
and dropped.  No request is lost; none is answered twice.

:meth:`FrontDoor.resize` grows or shrinks the worker count on demand.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping

import numpy as np

from repro.obs.export import span_from_dict
from repro.obs.trace import NOOP_TRACER, NoopTracer, Span, Tracer
from repro.serve.batching import Backpressure
from repro.serve.sharding import (
    ShardWorkerConfig,
    check_server_options,
    decode_message,
    encode_message,
    shard_key,
    shard_worker_main,
)
from repro.serve.shm import SlotPool
from repro.serve.telemetry import Telemetry
from repro.util.clock import MONOTONIC_CLOCK, Clock

if TYPE_CHECKING:  # pragma: no cover - typing only
    import multiprocessing
    from multiprocessing.connection import Connection

    from repro.operators.spec import OperatorSpec
    from repro.workloads.problem import PoissonProblem

__all__ = ["FrontDoor", "FrontDoorResult", "PendingRequest"]


@dataclass(frozen=True)
class FrontDoorResult:
    """What a completed sharded request resolves to."""

    solution: np.ndarray
    plan_source: str
    generation: int
    stale: bool
    batch_size: int
    #: end-to-end latency as seen by the front door (queue + transport +
    #: solve), in seconds
    latency_s: float
    #: solve-side latency the worker reported
    solve_latency_s: float
    #: which shard worker served the request
    shard: int
    #: trace id correlating the front-door + worker span tree (None when
    #: tracing is off)
    trace_id: str | None = None


@dataclass
class PendingRequest:
    """Bookkeeping for one in-flight message (internal).

    Holds everything needed to (a) resolve the caller's future exactly
    once and (b) resubmit the identical control message to a
    replacement worker if the original dies mid-request — the payload
    itself is safe in the front door's shared memory, so recovery costs
    one small message, not a re-upload.
    """

    future: "Future[Any]"
    worker_index: int
    message: dict[str, Any]
    kind: str = "solve"
    pool_shape: tuple[int, ...] | None = None
    slot: int | None = None
    submitted_at: float = 0.0
    resubmits: int = field(default=0, compare=False)
    #: front-door root span of this request's trace (None unless tracing)
    span: "Span | None" = None


class _WorkerHandle:
    """One live shard worker process and its control pipe."""

    def __init__(
        self,
        index: int,
        process: "multiprocessing.process.BaseProcess",
        conn: "Connection",
    ) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.send_lock = threading.Lock()
        self.reader: threading.Thread | None = None
        #: set when the front door retires the worker on purpose, so the
        #: reader thread treats EOF as a clean exit, not a crash
        self.retiring = False

    def send(self, msg: Mapping[str, Any]) -> None:
        payload = encode_message(msg)
        with self.send_lock:
            self.conn.send_bytes(payload)


class FrontDoor:
    """Sharded multi-process solve service (see module docstring).

    Parameters
    ----------
    shards:
        Initial worker-process count.
    machine, store_path:
        The preset name and store *path* each worker's inner
        :class:`~repro.serve.server.SolveServer` opens (workers open
        their own SQLite connections); ``None`` gives each worker a
        private in-memory registry.
    pool_slots:
        Shared-memory slots per payload shape — the admission-control
        bound of the sharded tier; ``submit`` raises
        :class:`~repro.serve.batching.Backpressure` when the shape's
        pool is exhausted.
    clock, trace, tracer:
        The clock the front door measures request latency on, and
        tracing; ``trace=True`` also traces every worker, and a
        ``tracer`` overrides the front door's.
    server_options:
        Every other keyword is a ``SolveServer`` option, forwarded
        unchanged to each worker; an unknown name, or a value that is not
        plain data, raises ``TypeError`` before any worker spawns.
    """

    def __init__(
        self,
        shards: int = 2,
        machine: str = "intel",
        store_path: str | None = None,
        *,
        pool_slots: int = 32,
        clock: Clock | None = None,
        trace: bool = False,
        tracer: Tracer | NoopTracer | None = None,
        **server_options: Any,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, not {shards}")
        check_server_options(server_options)
        import multiprocessing

        self.clock = clock or MONOTONIC_CLOCK
        self.telemetry = Telemetry()
        # ``trace=True`` is the one-knob form: a tracer here plus traced
        # workers whose spans ship home in solve replies.  An explicit
        # ``tracer`` overrides the instance (e.g. a ManualClock one).
        if tracer is not None:
            self.tracer: Tracer | NoopTracer = tracer
            trace = trace or tracer.enabled
        else:
            self.tracer = Tracer() if trace else NOOP_TRACER
        self.pool_slots = pool_slots
        self._worker_options = dict(
            machine=machine,
            store_path=store_path,
            trace=trace,
            server_options=server_options,
        )
        # Workers hold threads, SQLite handles and shm attachments —
        # spawn, never fork.
        self._ctx = multiprocessing.get_context("spawn")
        self._lock = threading.RLock()
        self._closed = False
        self._next_id = 0
        self._next_worker_index = 0
        self._workers: dict[int, _WorkerHandle] = {}
        self._pending: dict[int, PendingRequest] = {}
        #: sticky routing: shard key -> worker index
        self._route: dict[str, int] = {}
        self._pools: dict[tuple[int, ...], SlotPool] = {}
        #: consecutive crashes with no successful response in between —
        #: the guard that keeps a systematically failing worker (bad
        #: store path, broken environment) from respawning forever
        self._crash_streak = 0
        self.max_crash_streak = 5
        for _ in range(shards):
            self._spawn_worker()

    # -- client surface ---------------------------------------------------

    def submit(
        self,
        problem: "PoissonProblem",
        target_accuracy: float,
        distribution: str | None = None,
    ) -> "Future[FrontDoorResult]":
        """Route one request to its shard; returns a future.

        Raises :class:`Backpressure` when the payload pool for the
        request's shape has no free slot, and :class:`RuntimeError`
        after :meth:`shutdown`.  Requests are validated on the shard,
        by :meth:`SolveServer.submit <repro.serve.server.SolveServer.submit>`:
        an invalid target or non-finite data does not raise here, but
        fails the returned future with a :class:`RuntimeError` whose
        message starts ``"ValueError: "``, and schedules no tune.
        """
        from repro.tuner.dynamic import resolve_distribution

        dist = resolve_distribution(problem, distribution)
        operator = problem.operator.canonical()
        key = shard_key(operator, problem.level, problem.ndim)
        shape = problem.b.shape
        future: "Future[FrontDoorResult]" = Future()
        span: Span | None = None
        if self.tracer.enabled:
            # The front door roots the trace; its context rides the JSON
            # control message so the shard's serve.request span (and
            # everything below it) joins the same tree.
            span = self.tracer.start(
                "frontdoor.request",
                operator=operator,
                level=problem.level,
                distribution=dist,
                shard_key=key,
            )
        with self._lock:
            if self._closed:
                if span is not None:
                    span.set(error="RuntimeError")
                    self.tracer.finish(span)
                raise RuntimeError("front door is shut down")
            handle = self._workers[self._route_key(key)]
            pool = self._pool_for(shape)
            slot = pool.acquire()
            if slot is None:
                self.telemetry.incr("requests_rejected")
                if span is not None:
                    span.set(rejected=True)
                    self.tracer.finish(span)
                raise Backpressure(pool.slots, pool.slots)
            pool.write_payload(slot, problem)
            self._next_id += 1
            rid = self._next_id
            message = {
                "type": "solve",
                "id": rid,
                "pool": pool.name,
                "slot": slot,
                "shape": list(shape),
                "operator": operator,
                "distribution": dist,
                "target": target_accuracy,
            }
            if span is not None:
                span.set(shard=handle.index)
                message["trace"] = span.context().to_dict()
            self._pending[rid] = PendingRequest(
                future=future,
                worker_index=handle.index,
                message=message,
                kind="solve",
                pool_shape=tuple(shape),
                slot=slot,
                submitted_at=self.clock.now(),
                span=span,
            )
            self._send(handle, rid)
        self.telemetry.incr("requests_submitted")
        self._note_inflight()
        return future

    def solve(
        self,
        problem: "PoissonProblem",
        target_accuracy: float,
        distribution: str | None = None,
        timeout: float | None = 120.0,
    ) -> FrontDoorResult:
        """Synchronous convenience wrapper around :meth:`submit`."""
        return self.submit(problem, target_accuracy, distribution).result(timeout)

    def warm(
        self,
        distribution: str,
        level: int,
        operator: "OperatorSpec | str | None" = None,
        timeout: float | None = 300.0,
    ) -> dict[str, Any]:
        """Tune-and-cache one workload class on the shard that will
        serve it (synchronous; returns the worker's reply)."""
        from repro.operators.spec import parse_operator

        spec = parse_operator(operator) if operator is not None else None
        canonical = spec.canonical() if spec is not None else "poisson"
        ndim = spec.ndim if spec is not None else 2
        key = shard_key(canonical, level, ndim)
        future: "Future[dict[str, Any]]" = Future()
        with self._lock:
            if self._closed:
                raise RuntimeError("front door is shut down")
            handle = self._workers[self._route_key(key)]
            self._next_id += 1
            rid = self._next_id
            self._pending[rid] = PendingRequest(
                future=future,
                worker_index=handle.index,
                message={
                    "type": "warm",
                    "id": rid,
                    "distribution": distribution,
                    "level": level,
                    "operator": canonical if operator is not None else None,
                },
                kind="control",
                submitted_at=self.clock.now(),
            )
            self._send(handle, rid)
        return future.result(timeout)

    def warm_many(
        self,
        specs: Iterable[tuple[str, int, "OperatorSpec | str | None"]],
    ) -> list[dict[str, Any]]:
        return [self.warm(d, level, op) for d, level, op in specs]

    def stats(self) -> dict[str, Any]:
        """Front-door telemetry plus every live shard's snapshot."""
        replies = self._broadcast("stats", timeout=30.0)
        self._note_inflight()
        return {
            "frontdoor": self.telemetry.snapshot(),
            "shards": {
                str(index): reply.get("stats", {})
                for index, reply in sorted(replies.items())
            },
        }

    def wait_for_swaps(self, timeout: float = 30.0) -> bool:
        """True when no shard has a background tune in flight."""
        replies = self._broadcast("wait_swaps", timeout=timeout, extra={
            "timeout": timeout,
        })
        return all(reply.get("ok", False) for reply in replies.values())

    # -- scaling ----------------------------------------------------------

    @property
    def n_shards(self) -> int:
        with self._lock:
            return len(self._workers)

    def resize(self, target: int) -> int:
        """Grow or shrink to ``target`` workers; returns the new count.

        Growth spawns fresh workers (new keys will route to them —
        they start with zero routed keys, so least-loaded assignment
        fills them first).  Shrinking retires the highest-index workers:
        each is told to shut down — it drains and answers everything in
        flight before exiting — and its routed keys are unpinned so the
        next request re-routes them to a surviving worker.
        """
        if target < 1:
            raise ValueError(f"target must be >= 1, not {target}")
        retired: list[_WorkerHandle] = []
        with self._lock:
            if self._closed:
                raise RuntimeError("front door is shut down")
            while len(self._workers) < target:
                self._spawn_worker()
            if len(self._workers) > target:
                for index in sorted(self._workers, reverse=True)[
                    : len(self._workers) - target
                ]:
                    handle = self._workers[index]
                    handle.retiring = True
                    retired.append(handle)
                for handle in retired:
                    del self._workers[handle.index]
                    self._route = {
                        key: idx
                        for key, idx in self._route.items()
                        if idx != handle.index
                    }
        for handle in retired:
            try:
                handle.send({"type": "shutdown"})
            except (BrokenPipeError, OSError):
                pass
            handle.process.join(timeout=60.0)
            self.telemetry.incr("workers_retired")
        with self._lock:
            count = len(self._workers)
        self.telemetry.set_gauge("shards", count)
        return count

    # -- lifecycle --------------------------------------------------------

    def shutdown(self, timeout: float = 60.0) -> None:
        """Stop every worker, fail what could not drain, free the shm."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._workers.values())
            for handle in handles:
                handle.retiring = True
        for handle in handles:
            try:
                handle.send({"type": "shutdown"})
            except (BrokenPipeError, OSError):
                pass
        for handle in handles:
            handle.process.join(timeout=timeout)
            if handle.process.is_alive():  # pragma: no cover - hung worker
                handle.process.terminate()
                handle.process.join(timeout=5.0)
            if handle.reader is not None:
                handle.reader.join(timeout=5.0)
            handle.conn.close()
        with self._lock:
            leftovers = list(self._pending.values())
            self._pending.clear()
            pools = list(self._pools.values())
            self._pools.clear()
            self._workers.clear()
        for pending in leftovers:
            if not pending.future.done():  # pragma: no cover - drain failed
                pending.future.set_exception(
                    RuntimeError("front door shut down before a response")
                )
        for pool in pools:
            pool.close()

    def __enter__(self) -> "FrontDoor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    # -- internals --------------------------------------------------------

    def _route_key(self, key: str) -> int:
        """Sticky least-loaded assignment (callers hold the lock)."""
        index = self._route.get(key)
        if index is not None and index in self._workers:
            return index
        loads = {i: 0 for i in self._workers}
        for idx in self._route.values():
            if idx in loads:
                loads[idx] += 1
        index = min(loads, key=lambda i: (loads[i], i))
        self._route[key] = index
        return index

    def _release_pending_slot(self, pending: PendingRequest) -> None:
        """Return a failed request's slot to its pool (lock held)."""
        if pending.kind != "solve" or pending.slot is None:
            return
        pool = self._pools.get(pending.pool_shape or ())
        if pool is not None:
            pool.release(pending.slot)

    def _pool_for(self, shape: tuple[int, ...]) -> SlotPool:
        pool = self._pools.get(tuple(shape))
        if pool is None:
            pool = self._pools[tuple(shape)] = SlotPool(
                tuple(shape), slots=self.pool_slots
            )
        return pool

    def _send(self, handle: _WorkerHandle, rid: int) -> None:
        """Send pending message ``rid`` to ``handle`` (callers hold the
        lock; a dead pipe is handled by the reader's EOF path)."""
        pending = self._pending[rid]
        try:
            handle.send(pending.message)
        except (BrokenPipeError, OSError):
            # The reader thread will see EOF and resubmit this rid along
            # with everything else in flight on the dead worker.
            pass

    def _spawn_worker(self) -> _WorkerHandle:
        """Start one shard worker (callers hold the lock)."""
        index = self._next_worker_index
        self._next_worker_index += 1
        config = ShardWorkerConfig(index=index, **self._worker_options)
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=shard_worker_main,
            args=(config, child_conn),
            name=f"serve-shard-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # parent's copy; child keeps its own
        handle = _WorkerHandle(index, process, parent_conn)
        handle.reader = threading.Thread(
            target=self._reader_loop,
            args=(handle,),
            name=f"serve-shard-reader-{index}",
            daemon=True,
        )
        self._workers[index] = handle
        handle.reader.start()
        self.telemetry.incr("workers_spawned")
        self.telemetry.set_gauge("shards", len(self._workers))
        return handle

    def _reader_loop(self, handle: _WorkerHandle) -> None:
        """Drain one worker's responses until EOF; then recover.

        The OS pipe preserves everything the worker wrote before dying,
        so by the time EOF is observed every response the worker *did*
        send has been dispatched — what remains pending on this worker
        is exactly the set of unanswered requests.
        """
        while True:
            try:
                msg = decode_message(handle.conn.recv_bytes())
            except (EOFError, OSError):
                break
            if msg.get("type") == "bye":
                continue
            self._dispatch(handle, msg)
        if not handle.retiring:
            self._recover_worker(handle)

    def _dispatch(self, handle: _WorkerHandle, msg: dict[str, Any]) -> None:
        rid = msg.get("id")
        with self._lock:
            pending = self._pending.pop(rid, None)
            self._crash_streak = 0  # the tier is answering
        if pending is None:
            # Already answered (e.g. resubmitted to a replacement worker
            # and both copies came back) — count it, never resolve twice.
            self.telemetry.incr("duplicate_responses")
            return
        kind = msg.get("type")
        if pending.kind == "solve":
            solution: np.ndarray | None = None
            with self._lock:
                pool = self._pools.get(pending.pool_shape or ())
                if pool is not None and pending.slot is not None:
                    if kind == "result":
                        solution = pool.read_solution(pending.slot)
                    pool.release(pending.slot)
            latency = self.clock.now() - pending.submitted_at
            trace_id: str | None = None
            if pending.span is not None:
                # Merge the worker-side spans (shipped in the reply as
                # JSON) into the front door's sink, then close the root:
                # one sink now holds the whole correlated tree.
                trace_id = pending.span.trace_id
                if self.tracer.enabled and self.tracer.sink is not None:
                    for span_dict in msg.get("spans", []):
                        self.tracer.sink.emit(span_from_dict(span_dict))
                if kind != "result":
                    pending.span.set(error=msg.get("error", "unexpected reply"))
                pending.span.set(resubmits=pending.resubmits)
                self.tracer.finish(pending.span)
            if kind == "result" and solution is not None:
                self.telemetry.observe("request_latency", latency)
                self.telemetry.incr("requests_completed")
                pending.future.set_result(
                    FrontDoorResult(
                        solution=solution,
                        plan_source=msg.get("plan_source", "unknown"),
                        generation=msg.get("generation", 0),
                        stale=msg.get("stale", False),
                        batch_size=msg.get("batch_size", 1),
                        latency_s=latency,
                        solve_latency_s=msg.get("solve_latency_s", 0.0),
                        shard=handle.index,
                        trace_id=trace_id,
                    )
                )
            else:
                self.telemetry.incr("requests_failed")
                detail = msg.get("error", f"unexpected reply {kind!r}")
                pending.future.set_exception(RuntimeError(detail))
            self._note_inflight()
        else:
            pending.future.set_result(msg)

    def _recover_worker(self, handle: _WorkerHandle) -> None:
        """Respawn a crashed shard and resubmit its unanswered work."""
        handle.process.join(timeout=5.0)
        self.telemetry.incr("worker_crashes")
        with self._lock:
            if self._closed or self._workers.get(handle.index) is not handle:
                return
            del self._workers[handle.index]
            orphaned = [
                (rid, p)
                for rid, p in self._pending.items()
                if p.worker_index == handle.index
            ]
            self._crash_streak += 1
            if self._crash_streak > self.max_crash_streak:
                # Workers are dying faster than they answer — respawning
                # again would loop forever.  Fail what this worker owed;
                # surviving shards keep serving their own keys.
                for rid, pending in orphaned:
                    del self._pending[rid]
                    self._release_pending_slot(pending)
                    pending.future.set_exception(
                        RuntimeError(
                            f"shard worker {handle.index} crashed "
                            f"{self._crash_streak} times in a row; giving up"
                        )
                    )
                self.telemetry.incr("requests_failed", len(orphaned))
                return
            replacement = self._spawn_worker()
            self._route = {
                key: (replacement.index if idx == handle.index else idx)
                for key, idx in self._route.items()
            }
            for rid, pending in orphaned:
                pending.worker_index = replacement.index
                pending.resubmits += 1
                self._send(replacement, rid)
        self.telemetry.incr("worker_restarts")
        self.telemetry.incr("requests_resubmitted", len(orphaned))
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def _broadcast(
        self,
        msg_type: str,
        timeout: float,
        extra: Mapping[str, Any] | None = None,
    ) -> dict[int, dict[str, Any]]:
        """Send one control message to every worker; gather replies."""
        futures: dict[int, "Future[dict[str, Any]]"] = {}
        with self._lock:
            if self._closed:
                raise RuntimeError("front door is shut down")
            for index, handle in self._workers.items():
                self._next_id += 1
                rid = self._next_id
                future: "Future[dict[str, Any]]" = Future()
                self._pending[rid] = PendingRequest(
                    future=future,
                    worker_index=index,
                    message={"type": msg_type, "id": rid, **(extra or {})},
                    kind="control",
                    submitted_at=self.clock.now(),
                )
                futures[index] = future
                self._send(handle, rid)
        return {index: future.result(timeout) for index, future in futures.items()}

    def _note_inflight(self) -> None:
        with self._lock:
            by_worker: dict[int, int] = {i: 0 for i in self._workers}
            total = 0
            for pending in self._pending.values():
                if pending.kind != "solve":
                    continue
                total += 1
                if pending.worker_index in by_worker:
                    by_worker[pending.worker_index] += 1
        self.telemetry.set_gauge("inflight", total)
        for index, count in by_worker.items():
            self.telemetry.set_gauge(f"shard{index}:inflight", count)
