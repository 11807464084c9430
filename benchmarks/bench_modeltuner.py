"""Model-tuner bench: budgeted BO search vs the exhaustive DP.

For each operator family, tunes the same key three ways — the paper's
exhaustive DP, the budgeted model-guided :class:`BOSearch`, and the
Strategy 10^final heuristic (the serving fallback the model tuner is
meant to displace) — and compares simulated plan costs and trial
budgets.

Gates (the acceptance bars for the model tuner):

* the model plan's simulated cost is within ``--quality-bar`` of the DP
  plan's (default 1.10, i.e. 10%; ``$REPRO_MG_MODEL_QUALITY`` overrides
  the default for weak CI hosts);
* the search spends at most ``--budget-bar`` of the DP's trial budget
  (default 0.25);
* the model plan beats the Strategy 10^final heuristic on at least two
  benched operator families (the cold-machine serving claim; on some
  families the heuristic happens to *be* the optimum, so a universal
  bar would gate on the workload, not the tuner).

Runnable standalone::

    python benchmarks/bench_modeltuner.py --smoke --json out.json
    python benchmarks/bench_modeltuner.py --level 6 --operators poisson
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.machines.presets import get_preset
from repro.modeltuner import BOSearch, dp_trial_budget
from repro.tuner.dp import VCycleTuner
from repro.tuner.heuristics import HeuristicStrategy, tune_heuristic
from repro.tuner.plan import DEFAULT_ACCURACIES
from repro.tuner.timing import CostModelTiming
from repro.tuner.training import TrainingData

OUT_DIR = Path(__file__).parent / "out"

#: The acceptance families: the isotropic baseline, the operator whose
#: tuned cycle shapes differ most from it, and the variable-coefficient
#: family (where the fixed heuristic leaves measurable cost behind).
DEFAULT_OPERATORS = ("poisson", "anisotropic(epsilon=0.1)", "varcoeff")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--level", type=int, default=6,
        help="tuning level (default 6, the acceptance level)",
    )
    parser.add_argument("--machine", default="intel")
    parser.add_argument("--distribution", default="unbiased")
    parser.add_argument(
        "--instances", type=int, default=2,
        help="training instances per trial (smoke: 1)",
    )
    parser.add_argument("--seed", type=int, default=0, help="training-data seed")
    parser.add_argument(
        "--search-seed", type=int, default=0,
        help="BO candidate-selection seed (independent of --seed)",
    )
    parser.add_argument(
        "--operators", nargs="+", default=list(DEFAULT_OPERATORS),
        help="operator specs to bench (acceptance needs >= 2 families)",
    )
    parser.add_argument(
        "--quality-bar", type=float,
        default=float(os.environ.get("REPRO_MG_MODEL_QUALITY", "1.10")),
        help="max model/DP simulated-cost ratio "
        "(default 1.10; $REPRO_MG_MODEL_QUALITY overrides)",
    )
    parser.add_argument(
        "--budget-bar", type=float, default=0.25,
        help="max fraction of the DP trial budget the search may spend",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="single training instance; the gates still apply",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help=f"write results as JSON (default: {OUT_DIR}/modeltuner.json)",
    )
    return parser


def bench_operator(
    operator: str,
    level: int,
    machine: str,
    distribution: str,
    instances: int,
    seed: int,
    search_seed: int,
) -> dict:
    """Tune one family three ways and report costs + budgets."""
    profile = get_preset(machine)
    training = TrainingData(
        distribution=distribution, instances=instances, seed=seed,
        operator=operator,
    )
    timing = CostModelTiming(profile)
    final = len(DEFAULT_ACCURACIES) - 1

    def cost(plan) -> float:
        return plan.time_on(profile, level, plan.num_accuracies - 1)

    start = time.perf_counter()
    dp_plan = VCycleTuner(
        max_level=level, training=training, timing=timing, keep_audit=False
    ).tune()
    dp_wall = time.perf_counter() - start

    start = time.perf_counter()
    model_plan = BOSearch(
        max_level=level, training=training, pricing=profile, seed=search_seed
    ).tune()
    model_wall = time.perf_counter() - start

    heuristic_plan = tune_heuristic(
        HeuristicStrategy(sub_index=final, final_index=final),
        max_level=level,
        accuracies=DEFAULT_ACCURACIES,
        training=training,
        timing=timing,
    )

    budget = dp_trial_budget(level, len(DEFAULT_ACCURACIES))
    dp_cost, model_cost, heuristic_cost = (
        cost(dp_plan), cost(model_plan), cost(heuristic_plan),
    )
    return {
        "operator": operator,
        "dp_cost_s": dp_cost,
        "model_cost_s": model_cost,
        "heuristic_cost_s": heuristic_cost,
        "quality_ratio": model_cost / dp_cost,
        "heuristic_ratio": heuristic_cost / model_cost,
        "beats_heuristic": model_cost < heuristic_cost,
        "trials_used": model_plan.metadata["trials_used"],
        "trial_budget_dp": budget,
        "budget_fraction": model_plan.metadata["trials_used"] / budget,
        "dp_tune_wall_s": dp_wall,
        "model_tune_wall_s": model_wall,
    }


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    instances = 1 if args.smoke else args.instances

    report: dict = {
        "level": args.level,
        "machine": args.machine,
        "distribution": args.distribution,
        "instances": instances,
        "smoke": args.smoke,
        "quality_bar": args.quality_bar,
        "budget_bar": args.budget_bar,
        "operators": [],
    }
    failures: list[str] = []

    print(
        f"model-tuner bench: level {args.level}, machine={args.machine}, "
        f"quality bar {args.quality_bar:g}x, budget bar {args.budget_bar:.0%}"
    )
    for operator in args.operators:
        row = bench_operator(
            operator, args.level, args.machine, args.distribution,
            instances, args.seed, args.search_seed,
        )
        report["operators"].append(row)
        print(
            f"  {operator:<28} model/DP={row['quality_ratio']:.4f}x  "
            f"trials={row['trials_used']}/{row['trial_budget_dp']} "
            f"({row['budget_fraction']:.0%})  "
            f"heuristic/model={row['heuristic_ratio']:.2f}x"
        )
        if row["quality_ratio"] > args.quality_bar:
            failures.append(
                f"{operator}: model plan costs {row['quality_ratio']:.3f}x "
                f"the DP plan (bar {args.quality_bar:g}x)"
            )
        if row["budget_fraction"] > args.budget_bar:
            failures.append(
                f"{operator}: spent {row['trials_used']}/{row['trial_budget_dp']} "
                f"trials ({row['budget_fraction']:.0%}; bar {args.budget_bar:.0%})"
            )
    wins = sum(1 for row in report["operators"] if row["beats_heuristic"])
    need = min(2, len(args.operators))
    report["heuristic_wins"] = wins
    if wins < need:
        failures.append(
            f"model plans beat the Strategy 10^final heuristic on only "
            f"{wins} of {len(args.operators)} operator families (need {need})"
        )

    out_path = Path(args.json) if args.json else OUT_DIR / "modeltuner.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
