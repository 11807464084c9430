"""Shard workers: one :class:`SolveServer` per process, JSON control bus.

The horizontally scaled serving tier splits traffic by **shard key** —
``(operator, level, ndim)``, the identity of a payload class — across N
worker processes.  Each worker runs today's in-process
:class:`~repro.serve.server.SolveServer` loop unchanged: bounded queue,
micro-batching, stale-while-tune, telemetry.
What this module adds is the process boundary:

* :func:`shard_worker_main` — the child-process entry point: attach to
  the front door's shared-memory pools, rebuild each request as
  zero-copy views (:func:`repro.serve.shm.attach_problem`), solve **in
  place** into the slot, and answer with a slot token;
* the control-bus codec — messages are UTF-8 JSON over
  ``Connection.send_bytes``.  JSON cannot encode an ``ndarray``, so the
  hot path is *pickle-free by construction*: an array reaching
  :func:`encode_message` raises ``TypeError`` instead of silently
  serializing (tested).

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

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection

__all__ = [
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


def check_server_options(options: Mapping[str, Any]) -> None:
    """Validate shard-worker server options before any worker spawns.

    Every name must be a :class:`~repro.serve.server.SolveServer`
    keyword other than the three the worker sets itself (``machine``,
    ``store``, ``tracer``), and every value must be plain data the
    control-bus codec can encode — a clock, profiler or array cannot
    cross into a spawned process.  Both faults raise ``TypeError``.
    """
    from repro.serve.server import SolveServer

    inspect.signature(SolveServer).bind(
        machine="intel", store=None, tracer=None, **options
    )
    encode_message(options)


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
