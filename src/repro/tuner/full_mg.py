"""Autotuning full multigrid (paper section 2.4).

FULL-MULTIGRID_i either solves directly or runs ESTIMATE_j — a recursive
FULL-MULTIGRID_j call on the restricted residual problem — and then
iterates a V-type solver (SOR(omega_opt) or RECURSE_l) until accuracy p_i.
j and l are chosen independently: "in cases where the user does not require
much accuracy ... it may make sense to invest more heavily in the
estimation phase, while in cases where very high precision is needed ...
most of the computation would be done in relaxations at the highest
resolution."

The DP tunes the V family first (it is the solve-phase building block),
then builds FULL-MULTIGRID bottom-up the same way.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Union

import numpy as np

from repro.accuracy.estimator import (
    Aggregate,
    InfeasibleCandidate,
    iterations_to_accuracy,
)
from repro.grids.transfer import interpolate_correction, restrict_full_weighting
from repro.linalg.direct import DirectSolver
from repro.machines.meter import NULL_METER, OpMeter, backend_op, dim_op
from repro.tuner.choices import (
    Choice,
    DirectChoice,
    EstimateChoice,
    RecurseChoice,
    SORChoice,
)
from repro.tuner.dp import (
    CandidateOutcome,
    CandidateReport,
    _parallel,
    operator_sor_step,
    select_fastest,
    tuning_metadata,
)
from repro.tuner.executor import PlanExecutor
from repro.tuner.plan import TunedFullMGPlan, TunedVPlan, recurse_wrapper_meter
from repro.tuner.timing import CostModelTiming, TimingStrategy
from repro.tuner.trace import NULL_TRACE
from repro.tuner.training import TrainingData
from repro.util.validation import size_of_level

__all__ = ["FullMGTuner"]


class _FullTableView:
    """Duck-typed full-MG plan over a partially built table."""

    __slots__ = ("table", "vplan", "max_level")

    def __init__(
        self,
        table: dict[tuple[int, int], Choice],
        vplan: TunedVPlan,
        max_level: int,
    ) -> None:
        self.table = table
        self.vplan = vplan
        self.max_level = max_level

    def choice(self, level: int, acc_index: int) -> Choice:
        return self.table[(level, acc_index)]

    def backend_at(self, level: int) -> str:
        return self.vplan.backend_at(level)


@dataclass
class FullMGTuner:
    """Tunes the FULL-MULTIGRID_i family on top of a tuned V plan."""

    vplan: TunedVPlan
    training: TrainingData = field(default_factory=TrainingData)
    timing: TimingStrategy | None = None
    max_sor_iters: int = 400
    max_recurse_iters: int = 64
    aggregate: Aggregate = "max"
    direct: DirectSolver | None = None
    keep_audit: bool = True
    #: optional :class:`repro.store.sink.TrialSink` (see VCycleTuner.sink)
    sink: Any | None = None
    #: optional :class:`repro.parallel.TrialExecutor` (see
    #: VCycleTuner.trial_executor); parallel executors evaluate each
    #: level's estimate variants in worker processes
    trial_executor: Any | None = None

    def __post_init__(self) -> None:
        vplan_operator = self.vplan.metadata.get("operator", "poisson")
        if vplan_operator != self.training.operator_name:
            raise ValueError(
                f"vplan was tuned for operator {vplan_operator!r}; full-MG "
                f"training uses {self.training.operator_name!r} — its solve "
                f"phase would reuse iteration ladders trained on a different "
                f"operator"
            )
        if self.timing is None:
            from repro.machines.presets import INTEL_HARPERTOWN

            self.timing = CostModelTiming(INTEL_HARPERTOWN)
        if not isinstance(self.timing, CostModelTiming):
            raise NotImplementedError(
                "FullMGTuner times composite candidates via op pricing; "
                "use CostModelTiming (wallclock mode is available for the "
                "V-cycle tuner)"
            )
        self.direct = self.direct or DirectSolver(backend="block", cache_factorization=True)
        self._executor = PlanExecutor(direct=self.direct, operator=self.training.operator)
        #: grid dimensionality of the training operator (op vocabulary)
        self._ndim = self.training.ndim

    def _backend_at(self, level: int) -> str:
        """Full MG inherits the V plan's per-level backend placement."""
        return self.vplan.backend_at(level)

    def tune(self, max_level: int | None = None) -> TunedFullMGPlan:
        start = time.perf_counter()
        max_level = max_level or self.vplan.max_level
        if max_level > self.vplan.max_level:
            raise ValueError("full-MG level cannot exceed the V plan's max level")
        accuracies = self.vplan.accuracies
        m = len(accuracies)
        table: dict[tuple[int, int], Choice] = {}
        audit: list[CandidateReport] = []
        for i in range(m):
            table[(1, i)] = DirectChoice()
        for level in range(2, max_level + 1):
            self._tune_level(level, table, audit)
        metadata = tuning_metadata(
            "full-multigrid", self.training, self.timing, self.aggregate
        )
        if self.vplan.metadata.get("backend"):
            metadata["backend"] = self.vplan.metadata["backend"]
        if self.keep_audit:
            metadata["audit"] = audit
        plan = TunedFullMGPlan(
            accuracies=accuracies,
            max_level=max_level,
            table=table,
            vplan=self.vplan,
            metadata=metadata,
            ndim=self._ndim,
        )
        if self.sink is not None:
            from repro.store.sink import emit_tuning_trial

            emit_tuning_trial(
                self.sink, plan, self.timing, self.training,
                wall_seconds=time.perf_counter() - start,
            )
        return plan

    # ------------------------------------------------------------------

    def _fmg_meter(self, table: dict[tuple[int, int], Choice], level: int, j: int) -> OpMeter:
        """Unit meter of the partially built FULL-MULTIGRID_j at ``level``."""
        meter = OpMeter()
        choice = table[(level, j)]
        n = size_of_level(level)
        nd = self._ndim
        backend = self._backend_at(level)
        if isinstance(choice, DirectChoice):
            meter.charge(dim_op("direct", nd), n)
        elif isinstance(choice, EstimateChoice):
            meter.charge(backend_op(dim_op("residual", nd), backend), n)
            meter.charge(backend_op(dim_op("restrict", nd), backend), n)
            meter.merge(self._fmg_meter(table, level - 1, choice.estimate_accuracy))
            meter.charge(backend_op(dim_op("interpolate", nd), backend), n)
            solver = choice.solver
            if isinstance(solver, SORChoice):
                meter.charge(
                    backend_op(dim_op("relax", nd), backend), n, solver.iterations
                )
            else:
                wrapper = recurse_wrapper_meter(n, nd, backend)
                wrapper.merge(self.vplan.unit_meter(level - 1, solver.sub_accuracy))
                meter.merge(wrapper, times=solver.iterations)
        return meter

    def _estimate_meter(
        self, table: dict[tuple[int, int], Choice], level: int, j: int
    ) -> OpMeter:
        """Unit meter of one ESTIMATE_j application at ``level``."""
        n = size_of_level(level)
        nd = self._ndim
        backend = self._backend_at(level)
        est_meter = OpMeter()
        est_meter.charge(backend_op(dim_op("residual", nd), backend), n)
        est_meter.charge(backend_op(dim_op("restrict", nd), backend), n)
        est_meter.merge(self._fmg_meter(table, level - 1, j))
        est_meter.charge(backend_op(dim_op("interpolate", nd), backend), n)
        return est_meter

    def _estimate_states(
        self, view: _FullTableView, bundle, level: int, j: int
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Post-ESTIMATE_j states of every training instance."""
        states = []
        for x, b in bundle.fresh_starts():
            self._run_estimate(view, x, b, level, j)
            states.append((x, b))
        return states

    def _tune_level(
        self,
        level: int,
        table: dict[tuple[int, int], Choice],
        audit: list[CandidateReport],
    ) -> None:
        if _parallel(self.trial_executor):
            from repro.parallel.tasks import tune_fmg_level_parallel

            tune_fmg_level_parallel(self, level, table, audit)
            return
        n = size_of_level(level)
        bundle = self.training.at_level(level)
        accuracies = self.vplan.accuracies
        m = len(accuracies)
        view = _FullTableView(table, self.vplan, level)

        # Run each estimation variant once per training instance; every
        # solver variant continues from copies of these states.
        estimate_states = [
            self._estimate_states(view, bundle, level, j) for j in range(m)
        ]
        estimate_meters = [self._estimate_meter(table, level, j) for j in range(m)]

        kept = audit if self.keep_audit else None
        for i, target in enumerate(accuracies):
            outcomes = self._evaluate_slot(
                level, i, target, n, bundle, estimate_states, estimate_meters
            )
            table[(level, i)] = select_fastest(level, i, outcomes, kept)

    def _run_estimate(self, view: _FullTableView, x, b, level: int, j: int) -> None:
        """Apply ESTIMATE_j to (x, b) in place using the partial table."""
        r = self._executor._op(level).residual(x, b)
        rc = restrict_full_weighting(r)
        ec = np.zeros_like(rc)
        self._executor._run_full(view, ec, rc, level - 1, j, NULL_METER, NULL_TRACE)
        interpolate_correction(x, ec)

    def _variant_order(self) -> list[tuple[str, int | None]]:
        """Solver-variant enumeration order for one estimate accuracy j:
        SOR(omega_opt) first, then RECURSE_l highest l first.  Serial
        pruning and parallel selection both follow this order."""
        m = len(self.vplan.accuracies)
        order: list[tuple[str, int | None]] = [("sor", None)]
        order.extend(("recurse", sub) for sub in range(m - 1, -1, -1))
        return order

    def _evaluate_slot(
        self,
        level: int,
        acc_index: int,
        target: float,
        n: int,
        bundle,
        estimate_states,
        estimate_meters,
    ) -> list[CandidateOutcome]:
        """Direct, then every ESTIMATE_j + solver variant, each pruned
        against the fastest feasible candidate before it."""
        outcomes = [self._evaluate_direct(n, bundle)]
        best_time = outcomes[0].seconds  # direct is always feasible
        for j in range(len(self.vplan.accuracies)):
            for kind, sub in self._variant_order():
                outcome = self._evaluate_variant(
                    level, acc_index, target, n, bundle, j, kind, sub,
                    estimate_states[j], estimate_meters[j], best_time,
                )
                if outcome is None:
                    continue
                outcomes.append(outcome)
                if outcome.feasible:
                    best_time = min(best_time, outcome.seconds)
        return outcomes

    def _evaluate_direct(self, n: int, bundle) -> CandidateOutcome:
        """The always-feasible direct candidate for one slot."""
        direct_meter = OpMeter()
        direct_meter.charge(dim_op("direct", self._ndim), n)
        seconds = self.timing.time_candidate(
            direct_meter, _no_run, bundle.fresh_starts()
        )
        return CandidateOutcome(
            DirectChoice().describe(), seconds, True, DirectChoice()
        )

    def _evaluate_variant(
        self,
        level: int,
        acc_index: int,
        target: float,
        n: int,
        bundle,
        j: int,
        kind: str,
        sub: int | None,
        starts_proto,
        est_meter: OpMeter,
        best_time: float,
    ) -> CandidateOutcome | None:
        """Train and time ESTIMATE_j followed by one solver variant.

        ``best_time`` is the fastest candidate seen so far for this slot
        and drives budget pruning; ``math.inf`` disables it (the parallel
        path — any variant serial pruning would have skipped prices
        strictly worse than the serial winner, so selection agrees).
        Returns ``None`` when the variant is pruned without a report,
        matching the serial enumeration exactly.
        """
        judges = bundle.accuracy_fns()
        est_cost = self._price(est_meter)

        if kind == "sor":
            # Solve phase variant 1: SOR(omega_opt) until p_i.
            relax_op = backend_op(
                dim_op("relax", self._ndim), self._backend_at(level)
            )
            relax_cost = self.timing.op_seconds(relax_op, n)
            cap = self._budget_cap(relax_cost, best_time - est_cost, self.max_sor_iters)
            if cap < 0:
                return None
            try:
                iters = iterations_to_accuracy(
                    self._sor_step(n),
                    [(x.copy(), b) for x, b in starts_proto],
                    judges,
                    target,
                    max_iters=max(cap, 1),
                    aggregate=self.aggregate,
                )
            except InfeasibleCandidate:
                return CandidateOutcome(
                    f"estimate(j={j}) -> sor", math.inf, False, None
                )
            solver: Union[SORChoice, RecurseChoice] = SORChoice(iterations=iters)
            meter = OpMeter()
            meter.merge(est_meter)
            meter.charge(relax_op, n, iters)
            choice = EstimateChoice(j, solver)
            seconds = self.timing.time_candidate(meter, _no_run, bundle.fresh_starts())
            return CandidateOutcome(choice.describe(), seconds, True, choice)

        if kind == "recurse":
            # Solve phase variant 2: RECURSE_l until p_i.
            assert sub is not None
            unit = OpMeter()
            unit.merge(recurse_wrapper_meter(n, self._ndim, self._backend_at(level)))
            unit.merge(self.vplan.unit_meter(level - 1, sub))
            unit_cost = self._price(unit)
            cap = self._budget_cap(
                unit_cost, best_time - est_cost, self.max_recurse_iters
            )
            if cap < 0:
                return None
            step = self._recurse_step(level, sub)
            try:
                iters = iterations_to_accuracy(
                    step,
                    [(x.copy(), b) for x, b in starts_proto],
                    judges,
                    target,
                    max_iters=max(cap, 1),
                    aggregate=self.aggregate,
                )
            except InfeasibleCandidate:
                return CandidateOutcome(
                    f"estimate(j={j}) -> recurse(l={sub})", math.inf, False, None
                )
            solver = RecurseChoice(sub_accuracy=sub, iterations=iters)
            meter = OpMeter()
            meter.merge(est_meter)
            meter.merge(unit.scaled(iters))
            choice = EstimateChoice(j, solver)
            seconds = self.timing.time_candidate(meter, _no_run, bundle.fresh_starts())
            return CandidateOutcome(choice.describe(), seconds, True, choice)

        raise ValueError(f"unknown solver variant kind {kind!r}")

    # ------------------------------------------------------------------

    def _price(self, meter: OpMeter) -> float:
        return sum(
            count * self.timing.op_seconds(op, size) for (op, size), count in meter.items()
        )

    @staticmethod
    def _budget_cap(unit_cost: float, remaining: float, hard_cap: int) -> int:
        if unit_cost <= 0.0 or math.isinf(remaining):
            return hard_cap
        if remaining <= 0.0:
            return -1
        return min(hard_cap, int(remaining / unit_cost) + 1)

    def _sor_step(self, n: int):
        return operator_sor_step(self.training, n)

    def _recurse_step(self, level: int, sub_accuracy: int):
        executor = self._executor
        vplan = self.vplan

        def step(x: np.ndarray, b: np.ndarray) -> None:
            executor._recurse_once(vplan, x, b, level, sub_accuracy, NULL_METER, NULL_TRACE)

        return step


def _no_run(x: np.ndarray, b: np.ndarray) -> None:
    """Placeholder run for cost-model timing of composite candidates."""
