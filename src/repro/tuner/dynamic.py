"""Dynamic tuning: input-adaptive plan dispatch (paper section 6).

"Another direction we plan to explore is the use of dynamic tuning where an
algorithm has the ability to adapt during execution based on some features
of the intermediate state.  Such flexibility would allow the autotuned
algorithm to classify inputs and intermediate states into different
distribution classes and then switch between tuned versions of itself."

This module implements the input-classification half of that idea: a
:class:`DynamicSolver` holds one tuned plan per distribution class and a
classifier that routes each incoming problem to the plan trained for its
class.  The default classifier separates the paper's two families by the
standardized mean of the right-hand side (the biased family is the unbiased
one shifted by +2^31, so its mean is ~half its spread; an unbiased RHS has
mean ~0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro.machines.meter import OpMeter
from repro.tuner.executor import PlanExecutor
from repro.tuner.plan import TunedFullMGPlan, TunedVPlan
from repro.workloads.problem import PoissonProblem

__all__ = ["DynamicSolver", "classify_by_bias", "resolve_distribution"]

Plan = TunedVPlan | TunedFullMGPlan
Classifier = Callable[[PoissonProblem], str]


def classify_by_bias(problem: PoissonProblem, threshold: float = 0.12) -> str:
    """"unbiased" or "biased" from the standardized RHS mean.

    For b_ij ~ U[-S, S] the mean/spread ratio concentrates at 0; for the
    biased family (shifted by +S/2, so values span ~2S) it concentrates at
    0.25.  The default threshold of 0.12 sits in the gap between the two
    populations, so classification is essentially error-free at any grid
    size above 5x5.
    """
    b = problem.b
    spread = float(b.max() - b.min())
    if spread == 0.0:
        return "unbiased"
    standardized_mean = abs(float(b.mean())) / spread
    return "biased" if standardized_mean > threshold else "unbiased"


def resolve_distribution(problem: PoissonProblem, distribution: str | None) -> str:
    """The training-distribution label for a service request.

    ``None`` trusts the problem's label (raising when it is not a known
    distribution); ``"auto"`` classifies the right-hand side with
    :func:`classify_by_bias` instead — the escape hatch for unlabeled
    or externally built problems.  Shared by
    :func:`repro.core.solve_service` and the solve server.
    """
    from repro.workloads.distributions import DISTRIBUTIONS

    if distribution == "auto":
        return classify_by_bias(problem)
    dist = distribution if distribution is not None else problem.label
    if dist not in DISTRIBUTIONS:
        raise ValueError(
            f"cannot infer a training distribution from label {dist!r}; pass "
            f'distribution= (one of {sorted(DISTRIBUTIONS)}) or "auto" to classify'
        )
    return dist


@dataclass
class DynamicSolver:
    """Dispatches each problem to the tuned plan for its input class.

    Parameters
    ----------
    plans:
        Mapping from class label to tuned plan (V or full-MG).
    classifier:
        ``classifier(problem) -> label``; defaults to
        :func:`classify_by_bias`.
    fallback:
        Label to use when the classifier emits an unknown class (None means
        raise instead).
    """

    plans: Mapping[str, Plan]
    classifier: Classifier = classify_by_bias
    fallback: str | None = None
    executor: PlanExecutor = field(default_factory=PlanExecutor)

    def __post_init__(self) -> None:
        if not self.plans:
            raise ValueError("DynamicSolver needs at least one plan")
        ladders = {plan.accuracies for plan in self.plans.values()}
        if len(ladders) != 1:
            raise ValueError("all plans must share one accuracy ladder")
        if self.fallback is not None and self.fallback not in self.plans:
            raise ValueError(f"fallback {self.fallback!r} is not a known class")

    @property
    def classes(self) -> tuple[str, ...]:
        return tuple(self.plans)

    def plan_for(self, problem: PoissonProblem) -> tuple[str, Plan]:
        """Classify ``problem`` and return (label, plan)."""
        label = self.classifier(problem)
        plan = self.plans.get(label)
        if plan is None:
            if self.fallback is None:
                raise KeyError(
                    f"classifier produced unknown class {label!r}; "
                    f"known: {sorted(self.plans)}"
                )
            label, plan = self.fallback, self.plans[self.fallback]
        return label, plan

    def solve(
        self,
        problem: PoissonProblem,
        target_accuracy: float,
        meter: OpMeter | None = None,
    ) -> tuple[np.ndarray, str]:
        """Solve with the class-matched plan; returns (solution, label)."""
        label, plan = self.plan_for(problem)
        if problem.level > plan.max_level:
            raise ValueError(
                f"plan for class {label!r} tuned to level {plan.max_level}; "
                f"problem is level {problem.level}"
            )
        acc_index = plan.accuracy_index(target_accuracy)
        x = problem.initial_guess()
        if isinstance(plan, TunedFullMGPlan):
            self.executor.run_full_mg(plan, x, problem.b, acc_index, meter)
        else:
            self.executor.run_v(plan, x, problem.b, acc_index, meter)
        return x, label
