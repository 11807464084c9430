"""Model-based tuning: learned cost models + budgeted BO search.

Run:  python examples/model_tuner.py

What it does:
1. runs a few DP tunes into a shared store — the "fleet history" a cost
   model learns from,
2. fits a CostModel from that accumulated evidence and persists it as a
   schema-v6 model artifact (fit once, every worker warm-starts),
3. simulates a *cold machine*: tunes a never-seen key three ways —
   the model-guided BO search, the Strategy 10^final heuristic a serving
   fallback would use, and the full exhaustive DP — and compares
   simulated plan cost and trial budget,
4. shows the serving integration: a PlanCache with ``model_fallback=True``
   serves a model-predicted plan (not the heuristic) on a cold key.
"""

import tempfile
from pathlib import Path

from repro.machines import INTEL_HARPERTOWN
from repro.modeltuner import BOSearch, dp_trial_budget, model_for_profile
from repro.serve.cache import PlanCache
from repro.store import ModelStore, PlanRegistry, TrialDB, TuneKey
from repro.tuner.dp import VCycleTuner
from repro.tuner.heuristics import HeuristicStrategy, tune_heuristic
from repro.tuner.plan import DEFAULT_ACCURACIES
from repro.tuner.timing import CostModelTiming
from repro.tuner.training import TrainingData

MAX_LEVEL = 5  # N = 33; raise for bigger runs


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        registry = PlanRegistry(TrialDB(Path(tmp) / "plans.sqlite"))
        profile = INTEL_HARPERTOWN

        print("1) accumulate fleet history (a few exhaustive DP tunes):")
        for level in (3, 4):
            registry.get_or_tune(
                profile, TuneKey(max_level=level, instances=1, seed=0)
            )
        print(f"   {registry.db.count_trials()} trials in the store")

        print("\n2) fit + persist the cost model from that evidence:")
        model = model_for_profile(registry, profile)
        print(f"   fitted {model.fingerprint()} ({len(model.laws)} op laws)")
        print(f"   artifacts stored: {len(ModelStore(registry.db))}")

        print(f"\n3) cold key (level {MAX_LEVEL}): model search vs fallbacks:")
        training = TrainingData(distribution="unbiased", instances=1, seed=0)
        timing = CostModelTiming(profile)
        final = len(DEFAULT_ACCURACIES) - 1

        model_plan = BOSearch(
            max_level=MAX_LEVEL, training=training, pricing=profile,
            model=model, seed=0,
        ).tune()
        heuristic_plan = tune_heuristic(
            HeuristicStrategy(sub_index=final, final_index=final),
            max_level=MAX_LEVEL, accuracies=DEFAULT_ACCURACIES,
            training=training, timing=timing,
        )
        dp_plan = VCycleTuner(
            max_level=MAX_LEVEL, training=training, timing=timing,
            keep_audit=False,
        ).tune()

        def cost(plan) -> float:
            return plan.time_on(profile, MAX_LEVEL, plan.num_accuracies - 1)

        budget = dp_trial_budget(MAX_LEVEL, len(DEFAULT_ACCURACIES))
        used = model_plan.metadata["trials_used"]
        print(f"   model search   : {cost(model_plan):.3e}s simulated "
              f"({used}/{budget} trials = {used / budget:.0%} of the DP budget)")
        print(f"   heuristic 10^9 : {cost(heuristic_plan):.3e}s simulated")
        print(f"   exhaustive DP  : {cost(dp_plan):.3e}s simulated "
              f"({budget} trials)")

        print("\n4) serving: model-predicted fallback on a cold key:")
        cache = PlanCache(registry, instances=1, seed=0, model_fallback=True)
        key = cache.key_for(profile, None, MAX_LEVEL, "unbiased")
        entry = cache.get_or_fallback(profile, key)
        print(f"   cold entry source={entry.source}, "
              f"tuner={entry.plan.metadata.get('tuner', 'heuristic')}, "
              f"stale={entry.stale} (background DP swap still owed)")


if __name__ == "__main__":
    main()
