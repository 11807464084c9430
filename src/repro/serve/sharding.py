"""Shard workers: one :class:`SolveServer` per process, JSON control bus.

The horizontally scaled serving tier splits traffic by **shard key** —
``(operator, level, ndim)``, the identity of a payload class — across N
worker processes.  Each worker runs today's in-process
:class:`~repro.serve.server.SolveServer` loop unchanged: bounded queue,
micro-batching, stale-while-tune, SLO-driven plan selection, telemetry.
What this module adds is the process boundary:

* :func:`shard_worker_main` — the child-process entry point: attach to
  the front door's shared-memory pools, rebuild each request as
  zero-copy views (:func:`repro.serve.shm.attach_problem`), solve **in
  place** into the slot, and answer with a slot token;
* the control-bus codec — messages are UTF-8 JSON over
  ``Connection.send_bytes``.  JSON cannot encode an ``ndarray``, so the
  hot path is *pickle-free by construction*: an array reaching
  :func:`encode_message` raises ``TypeError`` instead of silently
  serializing (tested);
* :class:`Autoscaler` — the pure policy deciding how many workers the
  front door should run, from queue depth and windowed tail latency,
  with bounds and a cooldown.  Deterministic under a
  :class:`~repro.util.clock.ManualClock`.

Workers are spawned (not forked): the front door holds threads, SQLite
handles and shared memory at spawn time, none of which survive a fork
safely.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import threading
import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from repro.util.clock import MONOTONIC_CLOCK, Clock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection

__all__ = [
    "Autoscaler",
    "ShardWorkerConfig",
    "check_server_options",
    "decode_message",
    "encode_message",
    "shard_index",
    "shard_key",
    "shard_worker_main",
]


def shard_key(operator: str, level: int, ndim: int) -> str:
    """Canonical routing identity of one payload class."""
    return f"{operator}|L{level}|{ndim}d"


def shard_index(key: str, shards: int) -> int:
    """Stable shard assignment for ``key`` across ``shards`` workers.

    Uses a keyed-nowhere BLAKE2 digest, not ``hash()`` — Python string
    hashing is salted per process, and the front door and its tests
    must agree on routing across restarts.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, not {shards}")
    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") % shards


def encode_message(msg: Mapping[str, Any]) -> bytes:
    """Control-bus encoding: compact UTF-8 JSON.

    Deliberately *not* pickle: JSON rejects ``ndarray`` (and any other
    rich object) with ``TypeError``, which turns "someone put an array
    on the hot path" from a silent performance cliff into a test
    failure.  Payload arrays travel through shared memory only.
    """
    return json.dumps(msg, separators=(",", ":")).encode()


def decode_message(data: bytes) -> dict[str, Any]:
    return json.loads(data.decode())


@dataclass(frozen=True)
class ShardWorkerConfig:
    """Everything a spawned shard worker needs (plain picklable data;
    pickled once at spawn — never on the request path)."""

    index: int
    machine: str = "intel"
    #: store database path; None gives each worker a private in-memory
    #: registry (plans still tune per worker, the bench's cold path)
    store_path: str | None = None
    #: enable tracing inside this worker; solve replies then carry the
    #: worker-side span tree (as JSON dicts) back to the front door
    trace: bool = False
    #: ring-buffer capacity of the worker's span sink when tracing
    trace_capacity: int = 4096
    #: keyword options of the worker's inner
    #: :class:`~repro.serve.server.SolveServer`, passed through unchanged
    #: (validate them with :func:`check_server_options`)
    server_options: Mapping[str, Any] = field(default_factory=dict)


def check_server_options(options: Mapping[str, Any]) -> dict[str, Any]:
    """Validate shard-worker server options before any worker spawns.

    Every name must be a :class:`~repro.serve.server.SolveServer`
    keyword other than the three the worker sets itself (``machine``,
    ``store``, ``tracer``), and every value must be plain data the
    control-bus codec can encode — a clock, profiler or array cannot
    cross into a spawned process.  Both faults raise ``TypeError``.
    Returns the options with ``SolveServer``'s defaults filled in.
    """
    from repro.serve.server import SolveServer

    bound = inspect.signature(SolveServer).bind(
        machine="intel", store=None, tracer=None, **options
    )
    encode_message(options)
    bound.apply_defaults()
    return dict(bound.arguments)


def shard_worker_main(config: ShardWorkerConfig, conn: "Connection") -> None:
    """Child-process entry point: serve until shutdown or EOF.

    Protocol (all JSON over ``send_bytes``/``recv_bytes``):

    * ``{"type": "solve", "id", "pool", "slot", "shape", "operator",
      "distribution", "target"}`` — rebuild the problem from the slot
      (zero-copy views), submit to the inner server with ``out=`` the
      slot's solution region, reply ``{"type": "result", ...}`` when
      the future resolves (or ``"error"`` with the traceback).
    * ``{"type": "warm", "id", "distribution", "level", "operator"}`` —
      synchronous tune-and-cache, replies ``"warmed"``.
    * ``{"type": "stats", "id"}`` — telemetry snapshot reply.
    * ``{"type": "wait_swaps", "id", "timeout"}`` — block until no
      background tune is in flight.
    * ``{"type": "shutdown"}`` — drain, reply ``{"type": "bye"}``, exit.

    Responses are sent from whichever server thread resolves the
    request, serialized by a send lock; the loop itself only ever
    blocks in ``recv_bytes``.
    """
    from repro.obs.export import span_to_dict
    from repro.obs.trace import SpanContext, Tracer
    from repro.serve.server import ServeResult, SolveServer
    from repro.serve.shm import ShmAttachments, attach_problem
    from repro.store.registry import PlanRegistry

    # Explicit in-memory registry when no store path was shared: each
    # worker then tunes privately instead of inheriting $REPRO_MG_STORE.
    store: Any = (
        config.store_path if config.store_path is not None else PlanRegistry(":memory:")
    )
    tracer = Tracer(capacity=config.trace_capacity) if config.trace else None
    server = SolveServer(
        machine=config.machine, store=store, tracer=tracer, **config.server_options
    )
    attachments = ShmAttachments()
    send_lock = threading.Lock()

    def reply(msg: Mapping[str, Any]) -> None:
        payload = encode_message(msg)
        with send_lock:
            try:
                conn.send_bytes(payload)
            except (BrokenPipeError, OSError):  # front door is gone
                pass

    def on_done(request_id: int, slot_token: dict[str, Any], fut: Any) -> None:
        try:
            result: ServeResult = fut.result()
        except Exception as exc:
            reply(
                {
                    "type": "error",
                    "id": request_id,
                    **slot_token,
                    "error": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(),
                }
            )
            return
        response: dict[str, Any] = {
            "type": "result",
            "id": request_id,
            **slot_token,
            "plan_source": result.plan_source,
            "generation": result.generation,
            "stale": result.stale,
            "batch_size": result.batch_size,
            "solve_latency_s": result.latency_s,
        }
        if tracer is not None and result.trace_id is not None:
            # Ship this request's span tree home as plain JSON dicts —
            # still pickle-free — so the front door can merge every
            # worker's spans into one correlated trace.
            response["trace_id"] = result.trace_id
            response["spans"] = [
                span_to_dict(s) for s in tracer.for_trace(result.trace_id)
            ]
        reply(response)

    def handle_solve(msg: dict[str, Any]) -> None:
        # Isolated in its own frame on purpose: the shm views built here
        # must not stay referenced by the long-lived message loop, or
        # the attachments can never close cleanly at shutdown.
        slot_token = {"pool": msg["pool"], "slot": msg["slot"]}
        try:
            problem, x = attach_problem(
                attachments.buffer(msg["pool"]),
                msg["slot"],
                tuple(msg["shape"]),
                msg["operator"],
                msg["distribution"],
            )
            trace_ctx = msg.get("trace")
            future = server.submit(
                problem,
                msg["target"],
                distribution=msg["distribution"],
                out=x,
                trace_parent=(
                    SpanContext.from_dict(trace_ctx) if trace_ctx is not None else None
                ),
            )
        except Exception as exc:
            reply(
                {
                    "type": "error",
                    "id": msg["id"],
                    **slot_token,
                    "error": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(),
                }
            )
            return
        future.add_done_callback(
            lambda fut, rid=msg["id"], token=slot_token: on_done(rid, token, fut)
        )

    try:
        while True:
            try:
                msg = decode_message(conn.recv_bytes())
            except (EOFError, OSError):
                break
            kind = msg.get("type")
            if kind == "solve":
                handle_solve(msg)
            elif kind == "warm":
                try:
                    entry = server.warm(
                        msg["distribution"], msg["level"], msg.get("operator")
                    )
                    reply(
                        {
                            "type": "warmed",
                            "id": msg["id"],
                            "source": entry.source,
                            "generation": entry.generation,
                        }
                    )
                except Exception as exc:
                    reply(
                        {
                            "type": "error",
                            "id": msg["id"],
                            "error": f"{type(exc).__name__}: {exc}",
                            "traceback": traceback.format_exc(),
                        }
                    )
            elif kind == "stats":
                reply(
                    {"type": "stats", "id": msg["id"], "stats": server.stats()}
                )
            elif kind == "wait_swaps":
                settled = server.wait_for_swaps(timeout=msg.get("timeout", 30.0))
                reply({"type": "swaps_settled", "id": msg["id"], "ok": settled})
            elif kind == "shutdown":
                reply({"type": "bye"})
                break
            else:
                reply(
                    {
                        "type": "error",
                        "id": msg.get("id", -1),
                        "error": f"unknown message type {kind!r}",
                    }
                )
    finally:
        server.shutdown(drain=True, timeout=30.0)
        attachments.close()
        conn.close()


@dataclass
class ShardStats:
    """What the autoscaler sees about one live shard."""

    inflight: int
    p99_s: float = 0.0


class Autoscaler:
    """Bounded scale-up/scale-down policy for the front door.

    Pure decision logic: :meth:`decide` maps (per-shard stats, now) to a
    target worker count.  Scale **up** one worker when any shard's
    in-flight backlog exceeds ``up_backlog`` *or* its windowed p99
    breaches ``slo_p99_s`` (capacity, not plans, may be the fix); scale
    **down** one worker after the whole tier has been idle — zero
    backlog everywhere — for ``down_idle_s``.  Every change re-arms a
    ``cooldown_s`` timer so the tier never thrashes.  The front door
    applies decisions via ``resize``; tests drive this with a
    :class:`ManualClock` and assert exact decisions.
    """

    def __init__(
        self,
        min_shards: int = 1,
        max_shards: int = 8,
        *,
        up_backlog: int = 4,
        slo_p99_s: float | None = None,
        down_idle_s: float = 30.0,
        cooldown_s: float = 10.0,
        clock: Clock | None = None,
    ) -> None:
        if not 1 <= min_shards <= max_shards:
            raise ValueError(
                f"need 1 <= min_shards <= max_shards, got [{min_shards}, {max_shards}]"
            )
        self.min_shards = min_shards
        self.max_shards = max_shards
        self.up_backlog = up_backlog
        self.slo_p99_s = slo_p99_s
        self.down_idle_s = down_idle_s
        self.cooldown_s = cooldown_s
        self.clock = clock or MONOTONIC_CLOCK
        self._last_change: float | None = None
        self._idle_since: float | None = None

    def decide(self, shards: list[ShardStats]) -> int:
        """Target worker count given current per-shard stats."""
        current = len(shards)
        now = self.clock.now()
        if self._last_change is not None and now - self._last_change < self.cooldown_s:
            return current
        busy = any(s.inflight > 0 for s in shards)
        if busy:
            self._idle_since = None
        elif self._idle_since is None:
            self._idle_since = now

        pressed = any(
            s.inflight >= self.up_backlog
            or (self.slo_p99_s is not None and s.p99_s > self.slo_p99_s)
            for s in shards
        )
        if pressed and current < self.max_shards:
            self._last_change = now
            return current + 1
        if (
            not busy
            and current > self.min_shards
            and self._idle_since is not None
            and now - self._idle_since >= self.down_idle_s
        ):
            self._last_change = now
            return current - 1
        return current


# ShardStats is part of the autoscaler contract; re-exported for callers.
__all__.append("ShardStats")
