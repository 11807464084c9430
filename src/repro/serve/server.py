"""The solve server: a cache-warmed, batched serving runtime.

:class:`SolveServer` turns the one-shot :func:`repro.core.solve_service`
call into a long-running system shaped like production serving:

* **admission control** — a bounded queue; when it is full, ``submit``
  fails fast with :class:`~repro.serve.batching.Backpressure`;
* **micro-batching** — worker threads drain same-workload-class
  requests together, sharing one plan lookup and one solver setup
  (NumPy kernels release the GIL, so workers genuinely overlap);
* **stale-while-tune** — a cold workload class is answered immediately
  from the paper's heuristic plan while a background job runs the real
  DP tune and hot-swaps the tuned plan into the cache atomically, with
  the swap provenance persisted into the trial log;
* **telemetry** — per-request latency histograms, cache counters,
  queue depth, and swap events (:mod:`repro.serve.telemetry`).
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

from repro.machines.presets import get_preset
from repro.machines.profile import MachineProfile
from repro.obs.profile import SolveProfiler
from repro.obs.trace import NOOP_TRACER, NoopTracer, Span, SpanContext, Tracer
from repro.operators.spec import OperatorSpec
from repro.serve.batching import Backpressure, RequestQueue
from repro.serve.cache import CacheEntry, PlanCache, ServeKey
from repro.serve.telemetry import TUNE_FAILURE_LIMIT, Telemetry
from repro.tuner.executor import PlanExecutor
from repro.tuner.plan import DEFAULT_ACCURACIES
from repro.util.clock import MONOTONIC_CLOCK, Clock
from repro.workloads.problem import PoissonProblem

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.registry import PlanRegistry

__all__ = ["TUNE_FAILURE_LIMIT", "ServeResult", "SolveRequest", "SolveServer"]


@dataclass(frozen=True)
class ServeResult:
    """What a completed request resolves to."""

    solution: np.ndarray
    #: provenance of the plan that produced the solution
    plan_source: str
    #: cache generation of that plan (bumps on every hot swap)
    generation: int
    #: True when the request was served by a stale (fallback) entry
    stale: bool
    #: how many requests shared this request's batch
    batch_size: int
    #: submit-to-completion latency in seconds
    latency_s: float
    #: trace id correlating this request's span tree (None when tracing
    #: is off)
    trace_id: str | None = None


@dataclass
class SolveRequest:
    """One queued request (internal)."""

    problem: PoissonProblem
    target_accuracy: float
    key: ServeKey
    profile: MachineProfile
    future: "Future[ServeResult]"
    #: server-clock timestamp (set by ``submit`` from the injected clock)
    submitted_at: float = 0.0
    #: optional caller-owned output grid; the solve then runs in place in
    #: the caller's buffer (the sharded tier passes shared-memory views
    #: here, so solutions never cross a process boundary by copy)
    out: np.ndarray | None = None
    #: root span of this request's trace (None when tracing is off);
    #: carried explicitly because contextvars do not cross the queue
    #: hand-off into worker threads
    span: Span | None = None


class SolveServer:
    """Long-running solve service over a plan cache and worker pool.

    Parameters
    ----------
    machine:
        Preset name or :class:`MachineProfile` requests are priced and
        tuned for (per-request override via ``submit(machine=...)``).
    store:
        Plan registry backing the cache — a
        :class:`~repro.store.registry.PlanRegistry`,
        :class:`~repro.store.trialdb.TrialDB`, path, or None for
        :func:`repro.core.default_registry`.
    workers:
        Serving threads.  NumPy kernels release the GIL, so >1 overlaps
        solves on multi-core hosts.
    queue_size, batch_size:
        Admission-control bound and micro-batch cap.
    clock:
        Injectable :class:`~repro.util.clock.Clock` used for every
        *measured duration* (queue wait, solve time, request latency,
        background-tune time).  Tests inject a
        :class:`~repro.util.clock.ManualClock` so telemetry assertions
        are deterministic; lifecycle deadlines (shutdown/drain timeouts)
        intentionally stay on the real clock.
    model_fallback:
        Cold keys serve a model-predicted plan (the budgeted BO search
        warm-started from the store, :mod:`repro.modeltuner`) instead of
        the fixed heuristic while the background tune runs.
    """

    def __init__(
        self,
        machine: str | MachineProfile = "intel",
        store: object = None,
        *,
        workers: int = 2,
        queue_size: int = 128,
        batch_size: int = 8,
        kind: str = "multigrid-v",
        accuracies: tuple[float, ...] = DEFAULT_ACCURACIES,
        seed: int | None = 0,
        instances: int = 3,
        allow_nearest: bool = True,
        clock: Clock | None = None,
        backend: str = "numpy",
        tracer: Tracer | NoopTracer | None = None,
        profiler: SolveProfiler | None = None,
        op_span_min_points: int | None = None,
        model_fallback: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, not {workers}")
        from repro.core.api import _resolve_registry

        self.clock = clock or MONOTONIC_CLOCK
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.profiler = profiler
        self.op_span_min_points = op_span_min_points
        self.profile = get_preset(machine) if isinstance(machine, str) else machine
        self.registry: "PlanRegistry" = _resolve_registry(store)
        self.telemetry = Telemetry()
        self.cache = PlanCache(
            self.registry,
            kind=kind,
            accuracies=accuracies,
            seed=seed,
            instances=instances,
            allow_nearest=allow_nearest,
            telemetry=self.telemetry,
            backend=backend,
            tracer=self.tracer,
            model_fallback=model_fallback,
        )
        self.batch_size = batch_size
        self._queue: RequestQueue[SolveRequest] = RequestQueue(queue_size)
        self._state = threading.Condition()
        self._closed = False
        self._inflight = 0
        self._tuning: set[ServeKey] = set()
        self._tuner_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-tuner"
        )
        self._executors = threading.local()
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"serve-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # -- client surface ---------------------------------------------------

    def submit(
        self,
        problem: PoissonProblem,
        target_accuracy: float,
        distribution: str | None = None,
        machine: str | MachineProfile | None = None,
        out: np.ndarray | None = None,
        trace_parent: SpanContext | None = None,
    ) -> "Future[ServeResult]":
        """Enqueue one request; returns a future resolving to
        :class:`ServeResult`.

        ``out``, when given, must be a writable grid of the problem's
        shape; the solve then runs in place in that buffer and
        ``ServeResult.solution`` *is* it (the shared-memory serving tier
        passes slot views here so responses are zero-copy).

        ``trace_parent`` joins this request to an existing trace (the
        sharded front door passes the context it stamped on the control
        message); without it, a traced request roots a fresh trace.

        Raises :class:`ValueError` for a request no plan could serve —
        a target that is not finite, not > 0 or above the server's
        accuracy ladder, or a non-finite ``b`` or boundary — before it
        is queued, so it never schedules a tune;
        :class:`Backpressure` when the queue is full; and
        :class:`RuntimeError` after :meth:`shutdown`.
        """
        if out is not None and (
            out.shape != problem.b.shape or not out.flags.writeable
        ):
            raise ValueError(
                f"out must be a writable array of shape {problem.b.shape}"
            )
        self._validate(problem, target_accuracy)
        with self._state:
            if self._closed:
                raise RuntimeError("server is shut down")
        from repro.tuner.dynamic import resolve_distribution

        profile = self.profile
        if machine is not None:
            profile = get_preset(machine) if isinstance(machine, str) else machine
        dist = resolve_distribution(problem, distribution)
        key = self.cache.key_for(profile, problem.operator, problem.level, dist)
        future: "Future[ServeResult]" = Future()
        span: Span | None = None
        if self.tracer.enabled:
            span = self.tracer.start(
                "serve.request",
                parent=trace_parent,
                operator=key.operator,
                level=key.level,
                distribution=key.distribution,
                target_accuracy=target_accuracy,
            )
        request = SolveRequest(
            problem=problem,
            target_accuracy=target_accuracy,
            key=key,
            profile=profile,
            future=future,
            submitted_at=self.clock.now(),
            out=out,
            span=span,
        )
        try:
            depth = self._queue.put(key, request)
        except Backpressure:
            self.telemetry.incr("requests_rejected")
            if span is not None:
                span.set(rejected=True)
                self.tracer.finish(span)
            raise
        self.telemetry.incr("requests_submitted")
        self.telemetry.set_gauge("queue_depth", depth)
        return future

    def _validate(self, problem: PoissonProblem, target_accuracy: float) -> None:
        """Reject a request no plan of this server could serve."""
        if not math.isfinite(target_accuracy) or target_accuracy <= 0:
            raise ValueError(
                f"target accuracy must be finite and > 0, not {target_accuracy!r}"
            )
        # The tolerance of TunedVPlan.accuracy_index: what passes here
        # always finds a rung.
        if target_accuracy - 1e-12 > self.cache.accuracies[-1]:
            raise ValueError(
                f"target accuracy {target_accuracy:g} above the ladder "
                f"{self.cache.accuracies}"
            )
        for name in ("b", "boundary"):
            if not np.isfinite(getattr(problem, name)).all():
                raise ValueError(f"problem {name} has non-finite values")

    def solve(
        self,
        problem: PoissonProblem,
        target_accuracy: float,
        distribution: str | None = None,
        timeout: float | None = None,
    ) -> ServeResult:
        """Synchronous convenience wrapper around :meth:`submit`."""
        return self.submit(problem, target_accuracy, distribution).result(timeout)

    def warm(
        self,
        distribution: str,
        level: int,
        operator: OperatorSpec | str | None = None,
    ) -> CacheEntry:
        """Synchronously tune-and-cache one workload class (no fallback
        will ever serve for a warmed key)."""
        return self.cache.warm(self.profile, distribution, level, operator)

    def warm_many(
        self, specs: Iterable[tuple[str, int, OperatorSpec | str | None]]
    ) -> list[CacheEntry]:
        return self.cache.warm_many(self.profile, specs)

    def tune_failures(self) -> list[dict[str, Any]]:
        """The newest :data:`TUNE_FAILURE_LIMIT` background-tune
        failures, oldest first: each the exception ``type``, a bounded
        ``message``, the workload-class ``key`` label and the
        ``trace_id`` of the request that triggered the tune (``None``
        when tracing is off).  ``stats()["counters"]["tune_errors"]``
        counts them all."""
        return self.telemetry.failures("tune_errors")

    def stats(self) -> dict[str, Any]:
        """Telemetry snapshot (JSON-serializable)."""
        self.telemetry.set_gauge("queue_depth", self._queue.depth())
        self.telemetry.set_gauge("cached_keys", len(self.cache))
        return self.telemetry.snapshot()

    # -- lifecycle --------------------------------------------------------

    def shutdown(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the server (idempotent).

        ``drain=True`` waits for every admitted request to finish;
        ``drain=False`` cancels whatever is still queued.  Background
        tune jobs that have not started are dropped either way — plans
        they would have produced stay cold in the registry, which a
        future process can tune.
        """
        with self._state:
            already = self._closed
            self._closed = True
        self._queue.close()
        if not already and not drain:
            for request in self._queue.drain():
                request.future.cancel()
                self.telemetry.incr("requests_cancelled")
        if drain:
            deadline = None if timeout is None else time.monotonic() + timeout
            with self._state:
                while self._queue.depth() > 0 or self._inflight > 0:
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                    self._state.wait(timeout=remaining if remaining else 0.1)
        for thread in self._workers:
            thread.join(timeout=timeout if drain else 5.0)
        self._tuner_pool.shutdown(wait=False, cancel_futures=True)

    def wait_for_swaps(self, timeout: float = 30.0) -> bool:
        """Block until no background tune is in flight (True on success).

        Lets tests and benchmarks observe the asynchronous half of
        stale-while-tune deterministically.  Waits on the state
        condition (notified when a tune finishes) instead of
        sleep-polling, so the wake-up is immediate and flake-free.
        """
        deadline = time.monotonic() + timeout
        with self._state:
            while self._tuning:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._state.wait(timeout=remaining)
            return True

    def __enter__(self) -> "SolveServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown(drain=True)

    # -- serving ----------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            batch = self._queue.take_batch(self.batch_size, timeout=0.05)
            if batch is None:
                return
            if not batch:
                continue
            with self._state:
                self._inflight += len(batch)
            try:
                self._serve_batch(batch)
            finally:
                with self._state:
                    self._inflight -= len(batch)
                    self._state.notify_all()
                self.telemetry.set_gauge("queue_depth", self._queue.depth())

    def _serve_batch(self, batch: list[SolveRequest]) -> None:
        head = batch[0]
        batch_started = self.clock.now()
        for request in batch:
            self.telemetry.observe(
                "queue_wait", batch_started - request.submitted_at
            )
        # The batch span covers formation + plan-cache decision, parented
        # under the head request's trace; it is finished *before* the
        # solves so a caller that collects spans when the head future
        # resolves (the shard worker) sees a complete tree.  Solve spans
        # of the head request still parent under it by id.
        batch_span: Span | None = None
        if self.tracer.enabled and head.span is not None:
            batch_span = self.tracer.start("serve.batch", parent=head.span)
        try:
            if batch_span is not None:
                with self.tracer.activate(batch_span):
                    entry = self.cache.get_or_fallback(
                        head.profile, head.key, len(batch)
                    )
            else:
                entry = self.cache.get_or_fallback(head.profile, head.key, len(batch))
        except Exception as exc:  # fallback tuning failed: fail the batch
            for request in batch:
                if request.future.set_running_or_notify_cancel():
                    request.future.set_exception(exc)
                if request.span is not None:
                    request.span.set(error=type(exc).__name__)
                    self.tracer.finish(request.span)
            self.telemetry.incr("requests_failed", len(batch))
            if batch_span is not None:
                batch_span.set(error=type(exc).__name__)
                self.tracer.finish(batch_span)
            return
        if batch_span is not None:
            batch_span.set(
                batch_size=len(batch),
                source=entry.source,
                stale=entry.stale,
                generation=entry.generation,
            )
            self.tracer.finish(batch_span)
        if entry.stale:
            self.telemetry.incr("fallback_served", len(batch))
            self._schedule_tune(
                head.key,
                head.profile,
                entry,
                trace_id=head.span.trace_id if head.span is not None else None,
            )
        self.telemetry.incr("batches")
        if len(batch) > 1:
            self.telemetry.incr("batched_requests", len(batch))
        executor = self._executor_for(head.key)
        for request in batch:
            self._solve_one(
                request, entry, executor, len(batch),
                parent=batch_span if request is head else None,
            )

    def _solve_one(
        self,
        request: SolveRequest,
        entry: CacheEntry,
        executor: PlanExecutor,
        batch_size: int,
        parent: Span | None = None,
    ) -> None:
        if not request.future.set_running_or_notify_cancel():
            if request.span is not None:
                request.span.set(cancelled=True)
                self.tracer.finish(request.span)
            return
        solve_span: Span | None = None
        if self.tracer.enabled and request.span is not None:
            # The head request's solve nests under the batch span (same
            # trace); every other request's solve hangs off its own root.
            span_parent = parent if parent is not None else request.span
            solve_span = self.tracer.start(
                "serve.solve",
                parent=span_parent,
                plan_source=entry.source,
                batch_size=batch_size,
            )
        started = self.clock.now()
        try:
            from repro.grids.boundary import set_boundary_values
            from repro.tuner.plan import TunedFullMGPlan

            plan = entry.plan
            acc_index = plan.accuracy_index(request.target_accuracy)
            if request.out is not None:
                x = request.out
                x.fill(0.0)
                set_boundary_values(x, request.problem.boundary)
            else:
                x = request.problem.initial_guess()
            if solve_span is not None:
                solve_span.set(acc_index=acc_index)
                with self.tracer.activate(solve_span):
                    if isinstance(plan, TunedFullMGPlan):
                        executor.run_full_mg(plan, x, request.problem.b, acc_index)
                    else:
                        executor.run_v(plan, x, request.problem.b, acc_index)
            elif isinstance(plan, TunedFullMGPlan):
                executor.run_full_mg(plan, x, request.problem.b, acc_index)
            else:
                executor.run_v(plan, x, request.problem.b, acc_index)
        except Exception as exc:
            self.telemetry.incr("requests_failed")
            if solve_span is not None:
                solve_span.set(error=type(exc).__name__)
                self.tracer.finish(solve_span)
            if request.span is not None:
                request.span.set(error=type(exc).__name__)
                self.tracer.finish(request.span)
            request.future.set_exception(exc)
            return
        finished = self.clock.now()
        if solve_span is not None:
            self.tracer.finish(solve_span)
        self.telemetry.observe("solve", finished - started)
        latency = finished - request.submitted_at
        self.telemetry.observe("request_latency", latency)
        self.telemetry.incr("requests_completed")
        trace_id: str | None = None
        if request.span is not None:
            # Finish the root span *before* resolving the future, so a
            # waiter that collects this trace's spans on completion (the
            # shard worker shipping them back to the front door) sees
            # the whole tree.
            trace_id = request.span.trace_id
            self.tracer.finish(request.span)
        request.future.set_result(
            ServeResult(
                solution=x,
                plan_source=entry.source,
                generation=entry.generation,
                stale=entry.stale,
                batch_size=batch_size,
                latency_s=latency,
                trace_id=trace_id,
            )
        )

    def _executor_for(self, key: ServeKey) -> PlanExecutor:
        """Worker-local plan executor per operator (shared factorization
        cache across batches of the same workload class)."""
        cache: dict[str, PlanExecutor] | None = getattr(
            self._executors, "by_operator", None
        )
        if cache is None:
            cache = self._executors.by_operator = {}
        executor = cache.get(key.operator)
        if executor is None:
            executor = cache[key.operator] = PlanExecutor(
                operator=key.operator,
                tracer=self.tracer,
                profiler=self.profiler,
                op_span_min_points=self.op_span_min_points,
            )
        return executor

    # -- background tuning ------------------------------------------------

    def _schedule_tune(
        self,
        key: ServeKey,
        profile: MachineProfile,
        stale_entry: CacheEntry,
        trace_id: str | None = None,
    ) -> None:
        with self._state:
            if self._closed or key in self._tuning:
                return
            self._tuning.add(key)
        try:
            self._tuner_pool.submit(
                self._background_tune, key, profile, stale_entry, trace_id
            )
        except RuntimeError:  # pool already shut down
            with self._state:
                self._tuning.discard(key)
                self._state.notify_all()

    def _background_tune(
        self,
        key: ServeKey,
        profile: MachineProfile,
        stale_entry: CacheEntry,
        trace_id: str | None = None,
    ) -> None:
        # The registry serializes only its DB touches (lookup, store,
        # trial record) — never the DP tune itself, so other cold keys
        # keep resolving while this one tunes.
        tune_span: Span | None = None
        try:
            from repro.tuner.spec import TuneSpec, tune

            tune_key = self.cache.tune_key(key)

            def tuner():
                plan = tune(TuneSpec(tune_key, pricing=profile))
                # Swap provenance rides inside the plan JSON, so the
                # trial row the registry records carries it durably.
                swap_meta = {
                    "reason": "stale-while-tune",
                    "key": key.label(),
                    "fallback_generation": stale_entry.generation,
                    "stale_served_at_tune": stale_entry.serve_count(),
                }
                if trace_id is not None:
                    # Correlate the swap with the request that triggered
                    # it: the same id the client got in its ServeResult.
                    swap_meta["trace_id"] = trace_id
                plan.metadata["serve_swap"] = swap_meta
                return plan

            started = self.clock.now()
            if self.tracer.enabled:
                # The tune is its own trace: it may outlive the request,
                # so it links back by attribute instead of joining the
                # request's tree as a second root.
                tune_span = self.tracer.start(
                    "serve.background_tune",
                    parent=None,
                    key=key.label(),
                    request_trace_id=trace_id,
                )
                with self.tracer.activate(tune_span):
                    hit = self.registry.get_or_tune(
                        profile, tune_key, allow_nearest=False, tuner=tuner
                    )
                self.tracer.finish(tune_span)
                tune_span = None
            else:
                hit = self.registry.get_or_tune(
                    profile, tune_key, allow_nearest=False, tuner=tuner
                )
            if hit.source == "tuned":
                self.telemetry.observe(
                    "background_tune", self.clock.now() - started
                )
            source = "swapped" if hit.source == "tuned" else hit.source
            self.cache.swap(key, hit.plan, source=source, plan_json=hit.plan_json)
        except Exception as exc:
            # A failed background tune must not take the server down; the
            # fallback plan keeps serving and the next cold hit retries.
            # The failure is counted and kept for inspection.
            failure = self.telemetry.failure(
                "tune_errors", exc, key=key.label(), trace_id=trace_id
            )
            if tune_span is not None:
                tune_span.set(error=failure["type"], error_message=failure["message"])
        finally:
            if tune_span is not None:
                self.tracer.finish(tune_span)
            with self._state:
                self._tuning.discard(key)
                self._state.notify_all()
