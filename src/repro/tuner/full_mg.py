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
then builds FULL-MULTIGRID bottom-up the same way — the V tuner's slot
loop (:class:`~repro.tuner.dp.SlotTuner`) with this module's candidate
list: level k is tuned on the full-MG plan built through level k-1, its
ESTIMATE_j runs as the executor's estimation step on that plan (on the
fastest available kernels, as every priced training run), the solver
steps run on the V plan, and every candidate is
priced from the plans' meters.  Each distinct estimation call tree
(:meth:`TunedFullMGPlan.call_key
<repro.tuner.plan.TunedFullMGPlan.call_key>` one level down) runs once
per level, each (estimation tree, solver step) pair is trained once from
the states it leaves, and every accuracy slot reads its iteration count
off those shared runs; tunes are serial.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.accuracy.estimator import Aggregate
from repro.tuner.choices import Choice, DirectChoice, EstimateChoice, RecurseChoice, SORChoice
from repro.tuner.dp import SlotTuner, emit_trial
from repro.tuner.plan import TunedFullMGPlan, TunedVPlan
from repro.tuner.timing import CostModelTiming, TimingStrategy
from repro.tuner.training import TrainingData

__all__ = ["FullMGTuner"]


@dataclass
class FullMGTuner(SlotTuner):
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
        self._setup()
        if not isinstance(self.timing, CostModelTiming):
            raise NotImplementedError(
                "FullMGTuner times composite candidates via op pricing; "
                "use CostModelTiming (wallclock mode is available for the "
                "V-cycle tuner)"
            )
        self.accuracies = self.vplan.accuracies

    def tune(self, max_level: int | None = None) -> TunedFullMGPlan:
        start = time.perf_counter()
        max_level = max_level or self.vplan.max_level
        if max_level > self.vplan.max_level:
            raise ValueError("full-MG level cannot exceed the V plan's max level")
        backend = self.vplan.metadata.get("backend", "numpy")
        table, metadata = self._walk(max_level, "full-multigrid", backend)
        plan = TunedFullMGPlan(
            accuracies=self.accuracies,
            max_level=max_level,
            table=table,
            vplan=self.vplan,
            metadata=metadata,
            ndim=self._ndim,
        )
        return emit_trial(self.sink, plan, self.timing, self.training, start)

    # ------------------------------------------------------------------

    def _plan_below(
        self, table: dict[tuple[int, int], Choice], level: int
    ) -> TunedFullMGPlan:
        """The full-MG plan tuned through ``level - 1``: every candidate
        for ``level`` is priced and run on it."""
        return TunedFullMGPlan(
            self.accuracies, level - 1, dict(table), self.vplan, ndim=self._ndim
        )

    def _candidates(self) -> list[Choice]:
        """Direct, then for each estimate accuracy j: ESTIMATE_j followed
        by SOR(omega_opt), then by RECURSE_l highest l first."""
        m = len(self.accuracies)
        solvers = [SORChoice(1), *(RecurseChoice(sub, 1) for sub in range(m - 1, -1, -1))]
        return [DirectChoice(), *(EstimateChoice(j, s) for j in range(m) for s in solvers)]

    @staticmethod
    def _describe_infeasible(probe: Choice) -> str:
        assert isinstance(probe, EstimateChoice)
        solver = probe.solver
        tail = "sor" if isinstance(solver, SORChoice) else f"recurse(l={solver.sub_accuracy})"
        return f"estimate(j={probe.estimate_accuracy}) -> {tail}"
