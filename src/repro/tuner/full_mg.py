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
then builds FULL-MULTIGRID bottom-up the same way: level k is tuned on
the full-MG plan built through level k-1, its ESTIMATE_j runs as the
executor's estimation step on that plan's kernel backends, and every
candidate is priced from the plan's meters.  As in the V tuner, each
distinct step is trained once per level: ESTIMATE_j runs once per
distinct estimation call tree (:meth:`TunedFullMGPlan.call_key
<repro.tuner.plan.TunedFullMGPlan.call_key>` one level down), each
(estimation tree, solver step) pair is trained once from the states it
leaves, and every accuracy slot reads its iteration count off those
shared runs; tunes are serial.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro.accuracy.estimator import Aggregate, InfeasibleCandidate, Trajectories
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
    recurse_step,
    select_fastest,
    sor_step,
    tuning_metadata,
)
from repro.tuner.executor import PlanExecutor
from repro.tuner.plan import TunedFullMGPlan, TunedVPlan
from repro.tuner.timing import CostModelTiming, TimingStrategy
from repro.tuner.training import TrainingData

__all__ = ["FullMGTuner"]


@dataclass
class FullMGTuner:
    """Tunes the FULL-MULTIGRID_i family on top of a tuned V plan."""

    vplan: TunedVPlan
    training: TrainingData = field(default_factory=TrainingData)
    timing: TimingStrategy | None = None
    max_sor_iters: int = 400
    max_recurse_iters: int = 64
    aggregate: Aggregate = "max"
    keep_audit: bool = True
    #: optional :class:`repro.store.sink.TrialSink` (see VCycleTuner.sink)
    sink: Any | None = None

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
        self._executor = PlanExecutor(operator=self.training.operator)
        #: grid dimensionality of the training operator (op vocabulary)
        self._ndim = self.training.ndim
        # Training runs of the level being tuned, per (estimate key,
        # variant key), and the post-ESTIMATE states they start from, per
        # estimate key (see _trajectories).
        self._trained: dict[Any, Trajectories] = {}
        self._estimated: dict[Any, list[tuple[np.ndarray, np.ndarray]]] = {}

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

    def _plan_below(
        self, table: dict[tuple[int, int], Choice], level: int
    ) -> TunedFullMGPlan:
        """The full-MG plan tuned through ``level - 1``: every candidate
        for ``level`` is priced and run on it."""
        return TunedFullMGPlan(
            self.vplan.accuracies, level - 1, dict(table), self.vplan, ndim=self._ndim
        )

    def _run_key(
        self, plan: TunedFullMGPlan, level: int, j: int, probe: SORChoice | RecurseChoice
    ):
        """(estimate key, variant key) of ESTIMATE_j followed by ``probe``:
        pairs with equal keys train the same steps from the same states."""
        return plan.call_key(level - 1, j), self.vplan.choice_key(level, probe)

    def _estimate_states(
        self, plan: TunedFullMGPlan, level: int, j: int
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Post-ESTIMATE_j states of every training instance; every
        solver variant continues from copies of them."""
        starts = self.training.at_level(level).fresh_starts()
        for x, b in starts:
            self._executor._estimate(plan, x, b, level, j)
        return starts

    def _trajectories(
        self, plan: TunedFullMGPlan, level: int, j: int, probe: SORChoice | RecurseChoice
    ) -> Trajectories:
        """The training runs of ESTIMATE_j followed by ``probe``'s step on
        ``plan`` (:meth:`_plan_below` ``level``), shared by every slot of
        the level and by every pair with the same :meth:`_run_key`."""
        key = self._run_key(plan, level, j, probe)
        runs = self._trained.get(key)
        if runs is None:
            states = self._estimated.get(key[0])
            if states is None:
                states = self._estimated[key[0]] = self._estimate_states(plan, level, j)
            if isinstance(probe, RecurseChoice):
                step = recurse_step(self._executor, self.vplan, level, probe.sub_accuracy)
            else:
                step = sor_step(self._executor, self.vplan, level)
            starts = [(x.copy(), b) for x, b in states]
            accuracy_fns = self.training.at_level(level).accuracy_fns()
            runs = self._trained[key] = Trajectories(step, starts, accuracy_fns)
        return runs

    def _tune_level(
        self,
        level: int,
        table: dict[tuple[int, int], Choice],
        audit: list[CandidateReport],
    ) -> None:
        """Direct, then every ESTIMATE_j + solver variant, for every slot.

        Candidate by candidate: each distinct (estimate, variant) step is
        trained once, every slot reads its iteration count off those
        runs, and the runs go after the last candidate that reads them.
        Each slot still sees its candidates in enumeration order, each
        pruned against the fastest feasible one before it.
        """
        plan = self._plan_below(table, level)
        self._trained, self._estimated = {}, {}
        m = len(self.vplan.accuracies)
        direct = DirectChoice()  # always feasible
        direct_time = self.timing.time_candidate(plan.choice_meter(level, direct))
        outcomes = [
            [CandidateOutcome(direct.describe(), direct_time, True, direct)] for _ in range(m)
        ]
        best_time = [direct_time] * m
        order = [(j, probe) for j in range(m) for probe in self._variant_order()]
        keys = [self._run_key(plan, level, j, probe) for j, probe in order]
        last_use = {key: n for n, key in enumerate(keys)}
        for n, ((j, probe), key) in enumerate(zip(order, keys)):
            for i in range(m):
                outcome = self._evaluate_variant(plan, level, i, j, probe, best_time[i])
                if outcome is None:
                    continue
                outcomes[i].append(outcome)
                if outcome.feasible:
                    best_time[i] = min(best_time[i], outcome.seconds)
            if last_use[key] == n:
                self._trained.pop(key, None)
        self._estimated = {}
        kept = audit if self.keep_audit else None
        for i in range(m):
            table[(level, i)] = select_fastest(level, i, outcomes[i], kept)

    def _variant_order(self) -> list[SORChoice | RecurseChoice]:
        """Solver variants, one application each, in enumeration order
        for one estimate accuracy j: SOR(omega_opt) first, then RECURSE_l
        highest l first."""
        m = len(self.vplan.accuracies)
        order: list[SORChoice | RecurseChoice] = [SORChoice(1)]
        order.extend(RecurseChoice(sub, 1) for sub in range(m - 1, -1, -1))
        return order

    def _evaluate_variant(
        self,
        plan: TunedFullMGPlan,
        level: int,
        acc_index: int,
        j: int,
        probe: SORChoice | RecurseChoice,
        best_time: float,
    ) -> CandidateOutcome | None:
        """Time ESTIMATE_j followed by one solver variant (``probe``),
        its iteration count read off the pair's training runs.

        ``plan`` is :meth:`_plan_below` ``level``.  ``best_time`` is the
        fastest candidate seen so far for this slot and drives budget
        pruning.  Returns ``None`` when the variant is pruned without a
        report.
        """
        est_cost = self.timing.price(
            plan.choice_meter(level, EstimateChoice(j, SORChoice(0)))
        )
        if isinstance(probe, SORChoice):
            # Solve phase variant 1: SOR(omega_opt) until p_i.
            hard_cap, label = self.max_sor_iters, f"estimate(j={j}) -> sor"
        else:
            # Solve phase variant 2: RECURSE_l until p_i.
            hard_cap = self.max_recurse_iters
            label = f"estimate(j={j}) -> recurse(l={probe.sub_accuracy})"
        unit_cost = self.timing.price(self.vplan.choice_meter(level, probe))
        cap = self._budget_cap(unit_cost, best_time - est_cost, hard_cap)
        if cap < 0:
            return None
        try:
            iters = self._trajectories(plan, level, j, probe).iterations(
                self.vplan.accuracies[acc_index], max(cap, 1), self.aggregate
            )
        except InfeasibleCandidate:
            return CandidateOutcome(label, math.inf, False, None)
        choice = EstimateChoice(j, replace(probe, iterations=iters))
        seconds = self.timing.time_candidate(plan.choice_meter(level, choice))
        return CandidateOutcome(choice.describe(), seconds, True, choice)

    # ------------------------------------------------------------------

    @staticmethod
    def _budget_cap(unit_cost: float, remaining: float, hard_cap: int) -> int:
        if unit_cost <= 0.0 or math.isinf(remaining):
            return hard_cap
        if remaining <= 0.0:
            return -1
        return min(hard_cap, int(remaining / unit_cost) + 1)
