"""Tuner-quality regression: the budgeted search stays near the DP.

The acceptance claim (gated at level 6 by
``benchmarks/bench_modeltuner.py``) is that the model tuner lands
within 10% of the exhaustive DP's simulated plan cost while spending
at most 25% of its trial budget.  This suite pins the same bars at
level 5 — fast enough for the tier-1 run — on two operator families,
so a regression in the acquisition or the priors fails here first.
"""

import pytest

from repro.machines.presets import INTEL_HARPERTOWN
from repro.modeltuner import BOSearch, dp_trial_budget
from repro.tuner.dp import VCycleTuner
from repro.tuner.timing import CostModelTiming
from repro.tuner.training import TrainingData

MAX_LEVEL = 5
QUALITY_BAR = 1.10
BUDGET_BAR = 0.25


def _training(operator: str) -> TrainingData:
    return TrainingData(
        distribution="unbiased", instances=1, seed=0, operator=operator
    )


def _plan_cost(plan) -> float:
    return plan.time_on(INTEL_HARPERTOWN, plan.max_level, plan.num_accuracies - 1)


@pytest.mark.parametrize("operator", ["poisson", "anisotropic(epsilon=0.1)"])
class TestQualityBars:
    def test_within_ten_percent_of_dp_at_quarter_budget(self, operator):
        dp_plan = VCycleTuner(
            max_level=MAX_LEVEL,
            training=_training(operator),
            timing=CostModelTiming(INTEL_HARPERTOWN),
            keep_audit=False,
        ).tune()
        model_plan = BOSearch(
            max_level=MAX_LEVEL,
            training=_training(operator),
            pricing=INTEL_HARPERTOWN,
            seed=0,
        ).tune()

        ratio = _plan_cost(model_plan) / _plan_cost(dp_plan)
        assert ratio <= QUALITY_BAR, (
            f"{operator}: model plan costs {ratio:.3f}x the DP plan "
            f"(bar {QUALITY_BAR:g}x)"
        )

        budget = dp_trial_budget(MAX_LEVEL, model_plan.num_accuracies)
        fraction = model_plan.metadata["trials_used"] / budget
        assert fraction <= BUDGET_BAR, (
            f"{operator}: spent {model_plan.metadata['trials_used']}/{budget} "
            f"trials ({fraction:.0%}; bar {BUDGET_BAR:.0%})"
        )
