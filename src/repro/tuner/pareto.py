"""The full dynamic-programming solution of section 2.2.

Instead of remembering one algorithm per discrete accuracy cutoff, the full
DP keeps the whole optimal *set* A_k — every algorithm not dominated in
both accuracy and time — and builds A_k from A_{k-1} by substituting each
member into RECURSE and sweeping iteration counts.  The paper notes this
set "can grow to be very large", motivating the discrete approximation of
section 2.3; we cap the kept set and use this implementation for the
ablation comparing full vs discrete DP on small problems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro.tuner.choices import Choice, DirectChoice, RecurseChoice, SORChoice
from repro.tuner.executor import TrainingExecutor
from repro.tuner.plan import TunedVPlan, fixed_vplan
from repro.tuner.timing import CostModelTiming
from repro.tuner.training import TrainingData

__all__ = ["ChoiceChain", "ParetoPoint", "ParetoTuner", "pareto_front"]


class ChoiceChain(tuple):
    """A concrete cycle shape as its per-level choices, finest first:
    ``RecurseChoice(0, t)`` entries down to a direct solve or SOR^s."""

    def describe(self) -> str:
        head = self[0]
        if isinstance(head, RecurseChoice):
            return f"(recurse[{ChoiceChain(self[1:]).describe()}])^{head.iterations}"
        if isinstance(head, SORChoice):
            return f"sor^{head.iterations}"
        return "direct"

    def plan(self, level: int) -> TunedVPlan:
        """This chain as a one-rung V plan with its top at ``level``.

        Levels below the chain's base hold a direct solve nothing runs;
        the plan's ``unit_meter(level, 0)`` is the chain's exact op
        multiset.
        """
        choices: list[Choice] = [*self, *[DirectChoice()] * (level - len(self))]
        return fixed_vplan(choices[:level][::-1])


_DIRECT = ChoiceChain((DirectChoice(),))


@dataclass(frozen=True)
class ParetoPoint:
    """One member of the optimal set: (algorithm, time, worst-case accuracy)."""

    algorithm: ChoiceChain
    seconds: float
    accuracy: float


def pareto_front(
    points: Sequence[ParetoPoint], max_size: int | None = None
) -> list[ParetoPoint]:
    """Non-dominated subset (faster or more accurate), sorted by time.

    Capping keeps the members whose accuracies are most spread out in log
    space (always retaining the fastest and the most accurate), mirroring
    the paper's motivation for discretizing.
    """
    ordered = sorted(points, key=lambda p: (p.seconds, -p.accuracy))
    front: list[ParetoPoint] = []
    best_acc = -math.inf
    for p in ordered:
        if p.accuracy > best_acc:
            front.append(p)
            best_acc = p.accuracy
    if max_size is None or len(front) <= max_size:
        return front
    # Thin by accuracy spacing, keeping endpoints.
    kept = [front[0]]
    inner = front[1:-1]
    want = max_size - 2
    if want > 0 and inner:
        logs = np.log10([max(p.accuracy, 1e-300) for p in inner])
        targets = np.linspace(logs[0], logs[-1], want)
        used: set[int] = set()
        for t in targets:
            idx = int(np.argmin(np.abs(logs - t)))
            if idx not in used:
                used.add(idx)
                kept.append(inner[idx])
    kept.append(front[-1])
    kept.sort(key=lambda p: p.seconds)
    return kept


@dataclass
class ParetoTuner:
    """Builds the optimal sets A_1..A_max_level of section 2.2.

    Intended for small levels (the search is exponential without capping);
    the discrete tuner is the production path.  Every candidate runs as a
    one-rung plan on a :class:`TrainingExecutor` bound to the training
    operator: points are priced, so runs only supply accuracies.
    """

    max_level: int
    training: TrainingData = field(default_factory=TrainingData)
    timing: CostModelTiming | None = None
    max_set_size: int = 12
    max_sor_iters: int = 64
    max_recurse_iters: int = 6
    executor: TrainingExecutor = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.training.ndim != 2:
            # The full DP keeps every non-dominated chain, which only
            # stays tractable on small 2-D grids; the discrete tuners are
            # the dimension-general path.
            raise ValueError(
                "ParetoTuner is a 2-D ablation tool; "
                "use VCycleTuner/FullMGTuner for 3-D operators"
            )
        if self.timing is None:
            from repro.machines.presets import INTEL_HARPERTOWN

            self.timing = CostModelTiming(INTEL_HARPERTOWN)
        self.executor = TrainingExecutor(operator=self.training.operator)

    def tune(self) -> dict[int, list[ParetoPoint]]:
        """Return the optimal set per level."""
        sets: dict[int, list[ParetoPoint]] = {}
        sets[1] = [self._point(_DIRECT, level=1)]
        for level in range(2, self.max_level + 1):
            sets[level] = self._build_level(level, sets[level - 1])
        return sets

    # ------------------------------------------------------------------

    def _price(self, plan: TunedVPlan, level: int) -> float:
        return self.timing.price(plan.unit_meter(level, 0))

    def _point(self, algo: ChoiceChain, level: int) -> ParetoPoint:
        plan = algo.plan(level)
        bundle = self.training.at_level(level)
        worst = math.inf
        for (x, b), judge in zip(bundle.fresh_starts(), bundle.judges):
            self.executor.run_v(plan, x, b, 0)
            worst = min(worst, judge.accuracy_of(x))
        return ParetoPoint(algo, self._price(plan, level), worst)

    def _build_level(self, level: int, below: list[ParetoPoint]) -> list[ParetoPoint]:
        candidates: list[ParetoPoint] = []
        bundle = self.training.at_level(level)
        candidates.append(self._point(_DIRECT, level))
        # SOR with every sweep count up to the cap, measured incrementally.
        candidates.extend(self._incremental_family(level, bundle, None))
        # RECURSE around every member of the coarse optimal set.
        for member in below:
            candidates.extend(self._incremental_family(level, bundle, member.algorithm))
        return pareto_front(candidates, self.max_set_size)

    def _incremental_family(
        self, level: int, bundle, child: ChoiceChain | None
    ) -> list[ParetoPoint]:
        """Points for algo^t, t = 1..cap, reusing state across t."""
        head: SORChoice | RecurseChoice
        if child is None:
            head, rest, cap = SORChoice(1), (), self.max_sor_iters
        else:
            head, rest, cap = RecurseChoice(0, 1), child, self.max_recurse_iters
        plan = ChoiceChain((head, *rest)).plan(level)
        unit_seconds = self._price(plan, level)
        starts = bundle.fresh_starts()
        points: list[ParetoPoint] = []
        for t in range(1, cap + 1):
            worst = math.inf
            for (x, b), judge in zip(starts, bundle.judges):
                self.executor.run_v(plan, x, b, 0)
                worst = min(worst, judge.accuracy_of(x))
            chain = ChoiceChain((replace(head, iterations=t), *rest))
            points.append(ParetoPoint(chain, unit_seconds * t, worst))
        return points
