"""The fixed heuristic strategies of Figures 7 and 8.

"Strategy 10^9 refers to requiring an accuracy of 10^9 at each recursive
level ...  Strategies of the form 10^x/10^9 refer to requiring an accuracy
of 10^x at each recursive level below that of the input size, which
requires an accuracy of 10^9.  ...  All heuristic strategies call the
direct method for smaller input sizes whenever it is more efficient to meet
the accuracy requirement."

Each strategy is expressed as a *restricted* run of the same DP machinery:
the candidate set is cut down to {direct, RECURSE_x}, so iteration counts
are still trained on data and the direct shortcut still fires where it is
faster — but the per-level accuracy freedom the autotuner exploits is gone.
The gap between these strategies and the full DP is the paper's headline
result for the V-cycle tuner.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tuner.choices import Choice, DirectChoice, RecurseChoice
from repro.tuner.dp import VCycleTuner
from repro.tuner.plan import TunedVPlan
from repro.tuner.timing import TimingStrategy
from repro.tuner.training import TrainingData

__all__ = ["HeuristicStrategy", "strategy_label", "tune_heuristic"]


@dataclass(frozen=True)
class HeuristicStrategy:
    """A 10^x/10^final fixed strategy over a given accuracy ladder."""

    sub_index: int
    final_index: int

    def label(self, accuracies: tuple[float, ...]) -> str:
        return strategy_label(accuracies[self.sub_index], accuracies[self.final_index])


def strategy_label(sub_accuracy: float, final_accuracy: float) -> str:
    def fmt(p: float) -> str:
        exp = round(float(f"{p:e}".split("e")[1]))
        return f"10^{exp}"

    if sub_accuracy == final_accuracy:
        return f"Strategy {fmt(final_accuracy)}"
    return f"Strategy {fmt(sub_accuracy)}/{fmt(final_accuracy)}"


def tune_heuristic(
    strategy: HeuristicStrategy,
    max_level: int,
    accuracies: tuple[float, ...],
    training: TrainingData,
    timing: TimingStrategy,
    max_recurse_iters: int = 128,
    force_direct_max_level: int | None = None,
    backend: str = "numpy",
) -> TunedVPlan:
    """Train the given fixed strategy and return it as an executable plan.

    ``force_direct_max_level`` pins the direct call at levels <= the given
    level (the paper's Strategy 10^9 hard-codes the base case at N = 65,
    i.e. level 6); None lets cost decide, as for the 10^x/10^9 strategies.
    ``backend`` is the kernel backend the strategy is priced and placed
    on, as for :class:`VCycleTuner`.
    """
    if not 0 <= strategy.sub_index < len(accuracies):
        raise ValueError("sub_index out of range")
    if not 0 <= strategy.final_index < len(accuracies):
        raise ValueError("final_index out of range")
    sub = strategy.sub_index

    def allowed(level: int, acc_index: int, choice: Choice) -> bool:
        if isinstance(choice, DirectChoice):
            return True
        if force_direct_max_level is not None and level <= force_direct_max_level:
            return False
        # Recursion is permitted only into the strategy's fixed sub-accuracy.
        return isinstance(choice, RecurseChoice) and choice.sub_accuracy == sub

    tuner = VCycleTuner(
        max_level=max_level,
        accuracies=accuracies,
        training=training,
        timing=timing,
        max_recurse_iters=max_recurse_iters,
        candidate_filter=allowed,
        keep_audit=False,
        backend=backend,
    )
    plan = tuner.tune()
    plan.metadata["heuristic"] = strategy.label(tuple(accuracies))
    plan.metadata["sub_index"] = strategy.sub_index
    plan.metadata["final_index"] = strategy.final_index
    return plan
