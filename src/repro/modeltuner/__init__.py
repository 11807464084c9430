"""Model-based tuning: learned cost models + budgeted BO plan search.

The exhaustive DP tuner trains every candidate at every slot; this
package reaches comparable plans at a fraction of that trial budget by
(1) learning per-op cost models from the evidence the store and the
solve profiler already accumulate (:mod:`costmodel`), (2) running a
deterministic, seedable Bayesian-optimization search that only trains
the candidates a lower-confidence acquisition rates as promising
(:mod:`bo`), and (3) persisting fitted models as schema-v6 store
artifacts so cold machines and fleet workers start from predictions
instead of from scratch (:mod:`warmstart`).

Entry points: ``core.autotune(..., tuner="model")``,
``PlanRegistry.get_or_tune(..., tuner="model")``, and
``repro-mg store tune --tuner model``.
"""

from repro.modeltuner.bo import BOSearch, dp_trial_budget
from repro.modeltuner.costmodel import CostModel, OpLaw, points_of
from repro.modeltuner.warmstart import (
    fit_model_from_store,
    model_for_profile,
    model_plan_for_key,
)

__all__ = [
    "BOSearch",
    "CostModel",
    "OpLaw",
    "dp_trial_budget",
    "fit_model_from_store",
    "model_for_profile",
    "model_plan_for_key",
    "points_of",
]
