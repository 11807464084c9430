"""The accuracy-aware dynamic-programming autotuner — the paper's core
contribution.

Public surface:

* :class:`VCycleTuner` — discrete DP over (level, accuracy) for the
  MULTIGRID-V_i family (sections 2.1-2.3).
* :class:`FullMGTuner` — the full-multigrid extension (section 2.4).
  Both run one bottom-up slot loop (``repro.tuner.dp.SlotTuner``) and
  differ only in their candidate lists.
* :class:`ParetoTuner` — the uncapped optimal-set DP (section 2.2); each
  member's cycle shape is a :class:`ChoiceChain`.
* :class:`TunedVPlan` / :class:`TunedFullMGPlan` — executable, priceable,
  serializable tuned algorithms; their op meters and event traces are
  read off the table.  The tuners build level k on the plan tuned
  through level k-1: candidates are priced from its meters and trained
  and run on it by the executor.
* :class:`PlanExecutor` — runs plans (it only computes).
* :func:`tune_heuristic` — the fixed 10^x/10^9 strategies of Figure 7.
* :func:`save_plan` / :func:`load_plan` — PetaBricks-style config files.
"""

from repro.tuner.choices import (
    Choice,
    DirectChoice,
    EstimateChoice,
    RecurseChoice,
    SORChoice,
)
from repro.tuner.plan import DEFAULT_ACCURACIES, TunedFullMGPlan, TunedVPlan
from repro.tuner.executor import PlanExecutor
from repro.tuner.trace import TraceEvent
from repro.tuner.training import LevelTraining, TrainingData
from repro.tuner.timing import CostModelTiming, TimingStrategy, WallclockTiming
from repro.tuner.dp import CandidateReport, VCycleTuner
from repro.tuner.dynamic import DynamicSolver, classify_by_bias
from repro.tuner.full_mg import FullMGTuner
from repro.tuner.heuristics import HeuristicStrategy, strategy_label, tune_heuristic
from repro.tuner.pareto import ChoiceChain, ParetoPoint, ParetoTuner, pareto_front
from repro.tuner.config import load_plan, plan_from_dict, plan_to_dict, save_plan

__all__ = [
    "CandidateReport",
    "Choice",
    "ChoiceChain",
    "CostModelTiming",
    "DEFAULT_ACCURACIES",
    "DirectChoice",
    "DynamicSolver",
    "EstimateChoice",
    "FullMGTuner",
    "HeuristicStrategy",
    "LevelTraining",
    "ParetoPoint",
    "ParetoTuner",
    "PlanExecutor",
    "RecurseChoice",
    "SORChoice",
    "TimingStrategy",
    "TraceEvent",
    "TrainingData",
    "TunedFullMGPlan",
    "TunedVPlan",
    "VCycleTuner",
    "WallclockTiming",
    "classify_by_bias",
    "load_plan",
    "pareto_front",
    "plan_from_dict",
    "plan_to_dict",
    "save_plan",
    "strategy_label",
    "tune_heuristic",
]
