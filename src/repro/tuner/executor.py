"""Execution of tuned plans.

Executes the open-loop algorithm a plan describes: trained iteration
counts, no runtime accuracy checks — exactly the compiled artifact the
PetaBricks autotuner produces.  The executor only computes: what a call
runs, and in which order, follows from the plan alone, so op meters
(:meth:`~repro.tuner.plan.TunedVPlan.unit_meter`) and cycle traces
(:meth:`~repro.tuner.plan.TunedVPlan.trace`) are read off the plan.

An executor is bound to one operator spec (default: constant-coefficient
Poisson, whose delegating kernels keep the legacy path byte-identical);
per-level operator instances come from the shared operator cache and
coarse levels rediscretize.
"""

from __future__ import annotations

import os
from collections import deque
from threading import get_ident

import numpy as np

from repro.kernels import LevelKernels, get_backend, resolve_backend
from repro.machines.meter import OpMeter
from repro.obs.profile import SolveProfiler
from repro.obs.trace import NOOP_TRACER, NoopTracer, Span, Tracer
from repro.operators.base import StencilOperator
from repro.operators.spec import OperatorSpec, parse_operator, shared_operator
from repro.relax.weights import OMEGA_RECURSE
from repro.tuner.choices import (
    DirectChoice,
    EstimateChoice,
    RecurseChoice,
    SORChoice,
)
from repro.tuner.plan import TunedFullMGPlan, TunedVPlan
from repro.util.validation import level_of_size, size_of_level

__all__ = ["OP_SPAN_MIN_POINTS", "PlanExecutor", "TrainingExecutor"]

#: Default floor (in grid points) below which per-op spans are not
#: recorded.  A relax sweep on a sub-1k-point grid runs in single-digit
#: microseconds — the two clock reads needed to time it would rival the
#: op itself, so the "measurement" would mostly measure the observer
#: while adding real overhead.  Coarse levels still appear in the trace
#: through their ``mg.level`` span (which times the whole level in
#: aggregate); per-op detail starts where it is meaningful.  In 2-D
#: this keeps op spans for levels >= 5 (33x33); pass
#: ``op_span_min_points=0`` to record every op regardless.
OP_SPAN_MIN_POINTS = 1024


#: C-level appender that retains nothing (``maxlen=0`` drops every
#: element) — the emit target for profiler-only shims, where only the
#: timestamps matter and span records would just be thrown away.
_DISCARD_APPEND = deque(maxlen=0).append


class _TimedKernels:
    """Per-call observation shim over :class:`LevelKernels`.

    Only constructed when a real tracer or profiler is attached, so the
    default (unobserved) executor calls bound kernels directly with
    zero indirection.  Each kernel call becomes one leaf span (level /
    backend labels) and one profiler row; numerics pass through
    untouched, so golden-hash identity holds with tracing enabled.

    Op spans are the hottest observation path in the repo — the obs
    overhead bench gates them at <= 5% of level-7 V-cycle wall-clock,
    and two bare clock reads per op already cost ~3% there — so each
    call pays the bare minimum: two clock reads and one deferred leaf
    record stored straight into the sink (the tuple shape is
    :meth:`~repro.obs.trace.Tracer.leaf`'s contract; the sink
    materializes Spans at read time).  The record is emitted inline —
    an extra call frame per op is measurable at this granularity.
    Attrs dicts are shared per op, and the parent is the executor's
    tracked ``mg.level`` span — no contextvar traffic, no Span or id
    allocation per call.
    """

    __slots__ = (
        "_kernels",
        "_level",
        "_backend",
        "_profiler",
        "_executor",
        "_now",
        "_emit",
        "_pid",
        "_tid",
        "_attrs",
        "_relax_attrs",
    )

    def __init__(
        self,
        kernels: LevelKernels,
        level: int,
        backend: str,
        tracer: Tracer | NoopTracer,
        profiler: SolveProfiler | None,
        executor: "PlanExecutor",
    ) -> None:
        self._kernels = kernels
        self._level = level
        self._backend = backend
        self._profiler = profiler
        self._executor = executor
        self._now = tracer.clock.now_fn
        # The emit is the sink's bound list.append — a C call, no
        # Python frame; the buffer is trimmed by the enclosing
        # mg.level span's finish.  Profiler-only shims discard the
        # records outright (only the timestamps matter).
        if executor.tracer.enabled:
            self._emit = tracer.sink.append_raw  # type: ignore[union-attr]
        else:
            self._emit = _DISCARD_APPEND
        # Captured at bind time: shims are constructed lazily inside
        # the process that solves (shard workers bind after fork).
        # The tid is refreshed at each traced solve root (shims are
        # cached across solves; the executor is single-threaded per
        # solve, so per-record get_ident() would buy nothing).
        self._pid = os.getpid()
        self._tid = get_ident()
        # One shared, never-mutated attrs dict per op (plus one per
        # distinct relax iteration count) — leaf records store it
        # as-is, so the hot path allocates no dict per call.
        self._attrs = {"level": level, "backend": backend}
        self._relax_attrs: dict[int, dict] = {}

    def sor_sweeps(self, x, b, omega, iterations):
        attrs = self._relax_attrs.get(iterations)
        if attrs is None:
            attrs = self._relax_attrs[iterations] = dict(
                self._attrs, iterations=iterations
            )
        start_s = self._now()
        try:
            return self._kernels.sor_sweeps(x, b, omega, iterations)
        finally:
            end_s = self._now()
            self._emit((
                "op.relax", attrs, start_s, end_s,
                self._executor._span_parent, self._pid, self._tid,
            ))
            if self._profiler is not None:
                self._profiler.record(
                    self._level, "relax", self._backend, end_s - start_s
                )

    def residual(self, x, b):
        start_s = self._now()
        try:
            return self._kernels.residual(x, b)
        finally:
            end_s = self._now()
            self._emit((
                "op.residual", self._attrs, start_s, end_s,
                self._executor._span_parent, self._pid, self._tid,
            ))
            if self._profiler is not None:
                self._profiler.record(
                    self._level, "residual", self._backend, end_s - start_s
                )

    def restrict(self, r):
        start_s = self._now()
        try:
            return self._kernels.restrict(r)
        finally:
            end_s = self._now()
            self._emit((
                "op.restrict", self._attrs, start_s, end_s,
                self._executor._span_parent, self._pid, self._tid,
            ))
            if self._profiler is not None:
                self._profiler.record(
                    self._level, "restrict", self._backend, end_s - start_s
                )

    def interpolate_correction(self, x, ec):
        start_s = self._now()
        try:
            return self._kernels.interpolate_correction(x, ec)
        finally:
            end_s = self._now()
            self._emit((
                "op.interpolate", self._attrs, start_s, end_s,
                self._executor._span_parent, self._pid, self._tid,
            ))
            if self._profiler is not None:
                self._profiler.record(
                    self._level, "interpolate", self._backend, end_s - start_s
                )

    def __getattr__(self, name):
        return getattr(self._kernels, name)


class PlanExecutor:
    """Executes tuned V / full-MG plans on concrete problems.

    One executor is bound to an operator spec and can be reused across
    solves.  Direct solves use each level operator's own cached
    factorization, shared with every other executor of the same spec.
    """

    def __init__(
        self,
        operator: OperatorSpec | str | None = None,
        tracer: Tracer | NoopTracer | None = None,
        profiler: SolveProfiler | None = None,
        op_span_min_points: int | None = None,
    ) -> None:
        self.operator = parse_operator(operator)
        #: grid dimensionality of the bound operator (picks op vocabulary)
        self.ndim = self.operator.ndim
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.profiler = profiler
        # Observation is decided once at construction: the unobserved
        # executor (the default) keeps the exact pre-observability hot
        # path — raw bound kernels, no span calls, no clock reads.
        self._observed = bool(self.tracer.enabled) or profiler is not None
        # Profiler-only observation still needs real timestamps, which
        # the no-op tracer's inert spans cannot supply — time through a
        # private tracer whose 1-slot ring discards the spans.
        if profiler is not None and not self.tracer.enabled:
            self._obs_tracer: Tracer | NoopTracer = Tracer(capacity=1)
        else:
            self._obs_tracer = self.tracer
        # The enclosing mg.level span during a traced solve.  The
        # executor owns its recursion, so implicit parenting runs
        # through this plain attribute — a contextvar set/reset per
        # level would allocate HAMT nodes and tokens on the hot path.
        # The external parent (server batch span) is read from the
        # context once per solve, at the root.  Consequence: one
        # executor must not run traced solves concurrently from
        # multiple threads (its caches already assume the same).
        self._span_parent: Span | None = None
        self._mg_attrs: dict[tuple[int, int, str], dict] = {}
        self._direct_attrs: dict[int, dict] = {}
        self._obs_now = self._obs_tracer.clock.now_fn
        # Resolve the points floor to a level floor once (ndim is fixed).
        floor = OP_SPAN_MIN_POINTS if op_span_min_points is None else op_span_min_points
        self.op_span_min_points = floor
        min_level = 1
        while size_of_level(min_level) ** self.ndim < floor:
            min_level += 1
        self._op_span_min_level = min_level
        # Per-level operators resolved once: _op sits on the plan
        # execution hot path (every recursion step), so repeated spec
        # normalization / shared-cache lookups would add up.
        self._ops: dict[int, StencilOperator] = {}
        self._kernels_cache: dict[tuple[int, str], LevelKernels | _TimedKernels] = {}

    def _op(self, level: int) -> StencilOperator:
        op = self._ops.get(level)
        if op is None:
            op = self._ops[level] = shared_operator(self.operator, size_of_level(level))
        return op

    def _kernels(self, level: int, backend: str) -> LevelKernels:
        """Bound kernels for (level, backend); falls back to NumPy.

        A plan may record a backend that cannot run on this host (tuned
        elsewhere, optional dependency missing).  Since every backend is
        byte-identical by contract, silently executing the reference
        kernels preserves the plan's numerics exactly — only wall-clock
        differs from what the tuner priced.
        """
        key = (level, backend)
        kernels = self._kernels_cache.get(key)
        if kernels is None:
            op = self._op(level)
            if backend != "numpy":
                try:
                    accel = get_backend(backend)
                except ValueError:
                    kernels = None
                else:
                    if accel.available() and accel.supports(op):
                        accel.warmup()
                        kernels = accel.bind(op)
                    else:
                        kernels = None
            else:
                kernels = None
            if kernels is None:
                kernels = get_backend("numpy").bind(op)
            if self._observed and level >= self._op_span_min_level:
                kernels = _TimedKernels(
                    kernels, level, backend, self._obs_tracer, self.profiler, self
                )
            self._kernels_cache[key] = kernels
        return kernels

    def _direct(self, op: StencilOperator, x: np.ndarray, b: np.ndarray, level: int) -> None:
        """Direct solve at ``level``, observed when tracing/profiling."""
        if not self._observed or level < self._op_span_min_level:
            op.direct_solve(x, b)
            return
        attrs = self._direct_attrs.get(level)
        if attrs is None:
            attrs = self._direct_attrs[level] = {"level": level, "backend": "direct"}
        start_s = self._obs_now()
        try:
            op.direct_solve(x, b)
        finally:
            duration = self._obs_tracer.leaf(
                "op.direct", attrs, start_s, self._span_parent
            )
            if self.profiler is not None:
                self.profiler.record(level, "direct", "direct", duration)

    # -- MULTIGRID-V ------------------------------------------------------

    def run_v(
        self,
        plan: TunedVPlan,
        x: np.ndarray,
        b: np.ndarray,
        acc_index: int,
        meter: OpMeter | None = None,
    ) -> np.ndarray:
        """Apply MULTIGRID-V_{acc_index} to (x, b) in place; a given
        ``meter`` is charged the plan's op multiset of the call."""
        level = level_of_size(x.shape[0])
        if level > plan.max_level:
            raise ValueError(
                f"plan tuned up to level {plan.max_level}, input is level {level}"
            )
        if self._observed:
            self._refresh_tids()
        self._run_v(plan, x, b, level, acc_index)
        if meter is not None:
            meter.merge(plan.unit_meter(level, acc_index))
        return x

    def _refresh_tids(self) -> None:
        """Restamp cached shims with the solving thread's id.

        Shims are cached across solves, so their captured tid would go
        stale if the executor is handed to another thread between
        solves (concurrent traced solves are already forbidden, see
        ``_span_parent``).  One attribute store per shim at the solve
        root keeps records honest without a per-record ``get_ident``.
        """
        tid = get_ident()
        for kernels in self._kernels_cache.values():
            if type(kernels) is _TimedKernels:
                kernels._tid = tid

    def _level_span(self, level: int, acc_index: int, kind: str) -> Span:
        """Open an ``mg.level`` span under the tracked parent (hot path).

        The parent is the enclosing mg.level span if any, else whatever
        span is current in the context (the server's batch span) — read
        once here, at each level entry, not per op.  Attrs dicts are
        shared per (level, acc, kind); on error the span gets a private
        copy before the ``error`` label (see the callers).
        """
        key = (level, acc_index, kind)
        attrs = self._mg_attrs.get(key)
        if attrs is None:
            attrs = self._mg_attrs[key] = {
                "level": level, "acc": acc_index, "ndim": self.ndim, "kind": kind
            }
        parent = self._span_parent
        if parent is None:
            parent = self.tracer.current()
        span = self.tracer.begin("mg.level", attrs, parent)
        self._span_parent = span
        return span

    def _run_v(
        self,
        plan: TunedVPlan,
        x: np.ndarray,
        b: np.ndarray,
        level: int,
        acc_index: int,
    ) -> None:
        if self._observed and self.tracer.enabled:
            prev = self._span_parent
            span = self._level_span(level, acc_index, "v")
            try:
                self._apply(plan, x, b, level, plan.choice(level, acc_index))
            except BaseException as exc:
                span.attrs = dict(span.attrs)  # never poison the shared dict
                span.attrs.setdefault("error", type(exc).__name__)
                raise
            finally:
                self._span_parent = prev
                self.tracer.finish(span)
        else:
            self._apply(plan, x, b, level, plan.choice(level, acc_index))

    def _apply(
        self,
        plan: TunedVPlan,
        x: np.ndarray,
        b: np.ndarray,
        level: int,
        choice: DirectChoice | SORChoice | RecurseChoice,
    ) -> None:
        """One application of a V-type ``choice`` at ``level``: a direct
        solve, SOR(omega_opt) sweeps, or RECURSE over ``plan``."""
        if isinstance(choice, DirectChoice):
            self._direct(self._op(level), x, b, level)
        elif isinstance(choice, SORChoice):
            self._kernels(level, plan.backend_at(level)).sor_sweeps(
                x, b, self._op(level).omega_opt(), choice.iterations
            )
        elif isinstance(choice, RecurseChoice):
            for _ in range(choice.iterations):
                self._recurse_once(plan, x, b, level, choice.sub_accuracy)
        else:  # pragma: no cover - plan validation forbids this
            raise TypeError(f"invalid V choice {choice!r}")

    def _recurse_once(
        self,
        plan: TunedVPlan,
        x: np.ndarray,
        b: np.ndarray,
        level: int,
        sub_accuracy: int,
    ) -> None:
        """One RECURSE application: relax, coarse correction via the tuned
        sub-plan, relax (paper section 2.3, RECURSE_i)."""
        kernels = self._kernels(level, plan.backend_at(level))
        kernels.sor_sweeps(x, b, OMEGA_RECURSE, 1)
        rc = kernels.restrict(kernels.residual(x, b))
        ec = np.zeros_like(rc)
        self._run_v(plan, ec, rc, level - 1, sub_accuracy)
        kernels.interpolate_correction(x, ec)
        kernels.sor_sweeps(x, b, OMEGA_RECURSE, 1)

    # -- FULL-MULTIGRID ---------------------------------------------------

    def run_full_mg(
        self,
        plan: TunedFullMGPlan,
        x: np.ndarray,
        b: np.ndarray,
        acc_index: int,
        meter: OpMeter | None = None,
    ) -> np.ndarray:
        """Apply FULL-MULTIGRID_{acc_index} to (x, b) in place; a given
        ``meter`` is charged the plan's op multiset of the call."""
        level = level_of_size(x.shape[0])
        if level > plan.max_level:
            raise ValueError(
                f"plan tuned up to level {plan.max_level}, input is level {level}"
            )
        if self._observed:
            self._refresh_tids()
        self._run_full(plan, x, b, level, acc_index)
        if meter is not None:
            meter.merge(plan.unit_meter(level, acc_index))
        return x

    def _run_full(
        self,
        plan: TunedFullMGPlan,
        x: np.ndarray,
        b: np.ndarray,
        level: int,
        acc_index: int,
    ) -> None:
        if self._observed and self.tracer.enabled:
            prev = self._span_parent
            span = self._level_span(level, acc_index, "full")
            try:
                self._run_full_choice(plan, x, b, level, acc_index)
            except BaseException as exc:
                span.attrs = dict(span.attrs)  # never poison the shared dict
                span.attrs.setdefault("error", type(exc).__name__)
                raise
            finally:
                self._span_parent = prev
                self.tracer.finish(span)
        else:
            self._run_full_choice(plan, x, b, level, acc_index)

    def _run_full_choice(
        self,
        plan: TunedFullMGPlan,
        x: np.ndarray,
        b: np.ndarray,
        level: int,
        acc_index: int,
    ) -> None:
        choice = plan.choice(level, acc_index)
        if isinstance(choice, EstimateChoice):
            self._estimate(plan, x, b, level, choice.estimate_accuracy)
            # Solve phase: iterate the chosen V-type method.
            choice = choice.solver
        elif not isinstance(choice, DirectChoice):  # pragma: no cover
            raise TypeError(f"invalid full-MG choice {choice!r}")
        self._apply(plan.vplan, x, b, level, choice)

    def _estimate(
        self,
        plan: TunedFullMGPlan,
        x: np.ndarray,
        b: np.ndarray,
        level: int,
        estimate_accuracy: int,
    ) -> None:
        """ESTIMATE_j at ``level``: a correction-form FULL-MULTIGRID_j call
        on the restricted residual.  Full-MG solves run it before their
        solve phase; :class:`~repro.tuner.full_mg.FullMGTuner` trains its
        solver variants from the states it leaves."""
        kernels = self._kernels(level, plan.backend_at(level))
        rc = kernels.restrict(kernels.residual(x, b))
        ec = np.zeros_like(rc)
        self._run_full(plan, ec, rc, level - 1, estimate_accuracy)
        kernels.interpolate_correction(x, ec)


class TrainingExecutor(PlanExecutor):
    """A :class:`PlanExecutor` for runs whose only product is bytes.

    Iteration training and reference solves read the arrays a run
    leaves, never its wall-clock.  Every backend is byte-identical to
    NumPy, so these runs bind every level to the fastest backend
    available here (the one ``"auto"`` resolves to) whatever the plan
    placed there; the plan's placement stays what its meters price.
    Without an accelerated backend this is the plain NumPy executor.
    """

    def __init__(self, operator: OperatorSpec | str | None = None) -> None:
        super().__init__(operator)
        self._fastest = resolve_backend("auto")

    def _kernels(self, level: int, backend: str) -> LevelKernels:
        return super()._kernels(level, self._fastest)
