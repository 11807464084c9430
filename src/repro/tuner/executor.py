"""Execution of tuned plans.

Executes the open-loop algorithm a plan describes: trained iteration
counts, no runtime accuracy checks — exactly the compiled artifact the
PetaBricks autotuner produces.  A plan compiles each slot into a
program, the flat tuple of steps one call runs
(:meth:`~repro.tuner.plan.TunedVPlan.program`), and
:meth:`PlanExecutor.run` is one loop over those steps: ``enter`` and
``exit`` open and close ``mg.level`` spans, ``descend`` is residual plus
restriction into a zeroed coarse ``x``, ``ascend`` is interpolation and
correction, and ``relax``/``sor``/``direct`` call the kernels bound at
their level.  When a tracer or profiler is attached, the loop itself
times each op step; an untraced call runs the op steps alone (the
slot's :meth:`~repro.tuner.plan.TunedVPlan.call_key`, which is also what
the tuners train).  Op meters (:meth:`~repro.tuner.plan.TunedVPlan.unit_meter`)
and cycle traces count and return the same programs, so the ops a solve
runs are the ops its plan prices.

An executor is bound to one operator spec (default: constant-coefficient
Poisson, whose delegating kernels keep the legacy path byte-identical);
per-level operator instances come from the shared operator cache and
coarse levels rediscretize.  A run binds a level's kernels at the first
op step there, so levels that only solve directly bind none.
"""

from __future__ import annotations

import os
from threading import get_ident

import numpy as np

from repro.kernels import LevelKernels, get_backend, resolve_backend
from repro.machines.meter import OpMeter
from repro.obs.profile import SolveProfiler
from repro.obs.trace import NOOP_TRACER, NoopTracer, Tracer
from repro.operators.base import StencilOperator
from repro.operators.spec import OperatorSpec, parse_operator, shared_operator
from repro.relax.weights import OMEGA_RECURSE
from repro.tuner.plan import TunedFullMGPlan, TunedVPlan
from repro.tuner.trace import TraceEvent
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

#: Program steps that call the kernels bound at their level.
_KERNEL_STEPS = frozenset({"relax", "descend", "ascend", "sor"})


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
        # executor (the default) reads no clock and records nothing.
        self._observed = bool(self.tracer.enabled) or profiler is not None
        # Profiler-only observation still needs real timestamps, which
        # the no-op tracer cannot supply: it reads the clock of a
        # private tracer that records nothing.
        if profiler is not None and not self.tracer.enabled:
            self._obs_tracer: Tracer | NoopTracer = Tracer(capacity=1)
        else:
            self._obs_tracer = self.tracer
        # Shared, never-mutated attrs dicts of the spans a run records,
        # one per (name, labels): records store them as-is, so the hot
        # path allocates no dict per span.
        self._attrs: dict[tuple, dict] = {}
        # Resolve the points floor to a level floor once (ndim is fixed).
        floor = OP_SPAN_MIN_POINTS if op_span_min_points is None else op_span_min_points
        self.op_span_min_points = floor
        min_level = 1
        while size_of_level(min_level) ** self.ndim < floor:
            min_level += 1
        self._op_span_min_level = min_level
        self._ops: dict[int, StencilOperator] = {}
        self._kernels_cache: dict[tuple[int, str], LevelKernels] = {}

    def _op(self, level: int) -> StencilOperator:
        op = self._ops.get(level)
        if op is None:
            op = self._ops[level] = shared_operator(self.operator, size_of_level(level))
        return op

    def _kernels(self, level: int, backend: str) -> LevelKernels:
        """Bound kernels for (level, backend); falls back to NumPy.

        A plan may record a backend that cannot run on this host (tuned
        elsewhere, no C compiler, or a name no longer registered).  Since
        every backend is byte-identical by contract, silently executing
        the reference kernels preserves the plan's numerics exactly — only
        wall-clock differs from what the tuner priced.
        """
        key = (level, backend)
        kernels = self._kernels_cache.get(key)
        if kernels is None:
            op = self._op(level)
            if backend != "numpy":
                try:
                    accel = get_backend(backend)
                except ValueError:
                    pass
                else:
                    if accel.available() and accel.supports(op):
                        accel.warmup()
                        kernels = accel.bind(op)
            if kernels is None:
                kernels = get_backend("numpy").bind(op)
            self._kernels_cache[key] = kernels
        return kernels

    def _span_attrs(self, *labels) -> dict:
        """The shared attrs dict of ``mg.level`` (``("mg", level, acc,
        kind)``) or op (``(level, backend[, iterations])``) spans."""
        attrs = self._attrs.get(labels)
        if attrs is None:
            if labels[0] == "mg":
                _, level, acc, kind = labels
                attrs = {"level": level, "acc": acc, "ndim": self.ndim, "kind": kind}
            else:
                attrs = dict(zip(("level", "backend", "iterations"), labels))
            self._attrs[labels] = attrs
        return attrs

    # -- plan slots -------------------------------------------------------

    def run_v(
        self,
        plan: TunedVPlan | TunedFullMGPlan,
        x: np.ndarray,
        b: np.ndarray,
        acc_index: int,
        meter: OpMeter | None = None,
    ) -> np.ndarray:
        """Apply slot ``acc_index`` of ``plan`` (MULTIGRID-V_i of a V
        plan, FULL-MULTIGRID_i of a full-MG plan) to (x, b) in place; a
        given ``meter`` is charged the plan's op multiset of the call."""
        level = level_of_size(x.shape[0])
        if level > plan.max_level:
            raise ValueError(
                f"plan tuned up to level {plan.max_level}, input is level {level}"
            )
        # Untraced, the enter/exit marks do nothing: run the op steps alone.
        if self.tracer.enabled:
            self.run(plan, x, b, plan.program(level, acc_index))
        else:
            self.run(plan, x, b, plan.call_key(level, acc_index))
        if meter is not None:
            meter.merge(plan.unit_meter(level, acc_index))
        return x

    run_full_mg = run_v

    # -- the program loop -------------------------------------------------

    def run(
        self,
        plan: TunedVPlan | TunedFullMGPlan,
        x: np.ndarray,
        b: np.ndarray,
        program: tuple[TraceEvent, ...],
    ) -> np.ndarray:
        """Run ``program`` — a slot's or one choice's steps, as ``plan``
        compiles them — on (x, b) in place.

        Every op step at or above the op-span floor is timed when
        observed: one leaf record (parent: the enclosing ``mg.level``
        span) and one profiler row per kernel call.  If a step raises,
        every open ``mg.level`` span finishes labelled with the error.
        """
        top = level_of_size(x.shape[0])
        kernels: list[LevelKernels | None] = [None] * (top + 1)  # bound on first use
        observed = traced = self._observed
        if observed:
            tracer, profiler = self.tracer, self.profiler
            traced = tracer.enabled
            now, floor = self._obs_tracer.clock.now_fn, self._op_span_min_level
            emit = tracer.sink.append_raw if traced else None
            backends = [None, *map(plan.backend_at, range(1, top + 1))]
            labels = [None, *(self._span_attrs(lv, backends[lv]) for lv in range(1, top + 1))]
            pid, tid = os.getpid(), get_ident()
            root = parent = tracer.current() if traced else None

            def record(name: str, attrs: dict, level: int, start_s: float) -> float:
                end_s = now()
                if emit is not None:
                    emit((f"op.{name}", attrs, start_s, end_s, parent, pid, tid))
                if profiler is not None:
                    profiler.record(level, name, attrs["backend"], end_s - start_s)
                return end_s

        spans: list = []  # the open mg.level spans, innermost last
        finer: list[tuple[np.ndarray, np.ndarray]] = []  # (x, b) above each descent
        # An enter calls a full-MG slot after `estimate`, a V slot after `relax`.
        call = "full" if isinstance(plan, TunedFullMGPlan) else "v"
        kernel_steps = _KERNEL_STEPS
        try:
            for kind, level, detail in program:
                if kind in kernel_steps:  # the most frequent steps first
                    k = kernels[level]
                    if k is None:
                        k = kernels[level] = self._kernels(level, plan.backend_at(level))
                    timed = observed and level >= floor
                    if timed:
                        start_s = now()
                    if kind == "relax":
                        call = "v"
                        k.sor_sweeps(x, b, OMEGA_RECURSE, 1)
                        if timed:
                            record("relax", self._span_attrs(level, backends[level], 1), level, start_s)
                    elif kind == "descend":
                        r = k.residual(x, b)
                        if timed:
                            start_s = record("residual", labels[level], level, start_s)
                        rc = k.restrict(r)
                        if timed:
                            record("restrict", labels[level], level, start_s)
                        finer.append((x, b))
                        x, b = np.zeros_like(rc), rc
                    elif kind == "ascend":
                        ec = x
                        x, b = finer.pop()
                        k.interpolate_correction(x, ec)
                        if timed:
                            record("interpolate", labels[level], level, start_s)
                    else:  # sor
                        k.sor_sweeps(x, b, self._op(level).omega_opt(), detail)
                        if timed:
                            attrs = self._span_attrs(level, backends[level], detail)
                            record("relax", attrs, level, start_s)
                elif kind == "enter":
                    if traced:
                        attrs = self._span_attrs("mg", level, detail, call)
                        parent = tracer.begin("mg.level", attrs, parent)
                        spans.append(parent)
                elif kind == "exit":
                    if traced:
                        tracer.finish(spans.pop())
                        parent = spans[-1] if spans else root
                elif kind == "estimate":
                    call = "full"
                else:  # direct
                    timed = observed and level >= floor
                    if timed:
                        start_s = now()
                    self._op(level).direct_solve(x, b)
                    if timed:
                        record("direct", self._span_attrs(level, "direct"), level, start_s)
        except BaseException as exc:
            while spans:
                span = spans.pop()
                span.attrs = dict(span.attrs, error=type(exc).__name__)  # never poison the shared dict
                tracer.finish(span)
            raise
        return x


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
