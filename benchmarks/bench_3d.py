"""3-D workloads bench: tuned plans vs the paper's fixed heuristic.

Runs the dimension-general stack end-to-end on 3-D Poisson (and
anisotropic 3-D) workloads:

* measures the V(1,1) residual convergence factor at the bench level
  (the acceptance bar is <= 0.25 per cycle at level >= 5);
* DP-tunes a 3-D plan and trains the paper's strongest fixed heuristic
  (Strategy 10^final) on identical training data;
* prices both on the machine cost model at every ladder accuracy and
  wall-clocks real solves with each plan.

Gate (CI runs ``--smoke``): the tuned plan must never price worse than
the heuristic at any accuracy, and the convergence factor bar must
hold.  The DP searches a superset of the heuristic's candidate space on
the same cost model, so a violation means the 3-D op pricing or the DP
threading broke — exactly what this bench exists to catch.

Runnable standalone::

    python benchmarks/bench_3d.py --smoke --json out.json
    python benchmarks/bench_3d.py --max-level 5 --operator anisotropic3d(epsx=0.01)
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.api import autotune, solve
from repro.grids.norms import residual_norm
from repro.machines.presets import get_preset
from repro.multigrid import v_plan
from repro.operators import shared_operator
from repro.store.sink import plan_cycle_shape
from repro.tuner.executor import PlanExecutor
from repro.tuner.heuristics import HeuristicStrategy, tune_heuristic
from repro.tuner.plan import DEFAULT_ACCURACIES
from repro.tuner.timing import CostModelTiming
from repro.tuner.training import TrainingData
from repro.util.validation import size_of_level
from repro.workloads.distributions import make_problem

OUT_DIR = Path(__file__).parent / "out"

#: Acceptance bar: measured residual contraction per V(1,1) cycle.
CONVERGENCE_FACTOR_BAR = 0.25


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--operator", default="poisson3d",
        help="3-D operator spec to tune (default poisson3d)",
    )
    parser.add_argument(
        "--max-level", type=int, default=5,
        help="tuning/bench grid level (smoke: 4; acceptance factor: >= 5)",
    )
    parser.add_argument("--machine", default="intel")
    parser.add_argument("--distribution", default="unbiased")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--instances", type=int, default=2)
    parser.add_argument("--solves", type=int, default=5, help="wall-clock solve repeats")
    parser.add_argument(
        "--smoke", action="store_true",
        help="small level / few solves (CI gate: tuned <= heuristic cost, "
        "convergence factor bar at the smoke level)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help=f"write results as JSON (default: {OUT_DIR}/bench_3d.json)",
    )
    return parser


def measure_convergence_factor(operator: str, level: int, seed: int) -> list[float]:
    """Residual contraction factors of successive V(1,1) cycles."""
    n = size_of_level(level)
    op = shared_operator(operator, n)
    rng = np.random.default_rng(seed)
    u = np.zeros((n,) * 3)
    b = rng.uniform(-1.0, 1.0, size=(n,) * 3)
    executor, plan = PlanExecutor(operator=operator), v_plan(level, ndim=3)
    prev = residual_norm(op.residual(u, b))
    factors = []
    for _ in range(6):
        executor.run_v(plan, u, b, 0)
        cur = residual_norm(op.residual(u, b))
        if cur == 0.0 or prev == 0.0:
            break
        factors.append(cur / prev)
        prev = cur
    return factors


def wallclock_solves(plan, operator: str, level: int, target: float,
                     seed: int, repeats: int) -> float:
    """Median wall-clock seconds of a full plan execution."""
    n = size_of_level(level)
    samples = []
    for i in range(repeats):
        problem = make_problem("unbiased", n, seed, index=i, operator=operator)
        start = time.perf_counter()
        solve(plan, problem, target)
        samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[len(samples) // 2]


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    level = 4 if args.smoke else args.max_level
    repeats = 2 if args.smoke else args.solves
    n = size_of_level(level)
    profile = get_preset(args.machine)

    print(
        f"3-D bench: operator={args.operator}, level {level} (n={n}**3), "
        f"machine={args.machine}"
    )

    factors = measure_convergence_factor(args.operator, level, args.seed)
    worst_factor = max(factors) if factors else 0.0
    print(
        "V(1,1) residual factors: "
        + " ".join(f"{f:.3f}" for f in factors)
        + f"  (worst {worst_factor:.3f}, bar {CONVERGENCE_FACTOR_BAR})"
    )

    training = TrainingData(
        distribution=args.distribution, instances=args.instances,
        seed=args.seed, operator=args.operator,
    )
    start = time.perf_counter()
    tuned = autotune(
        max_level=level, machine=profile, distribution=args.distribution,
        instances=args.instances, seed=args.seed, operator=args.operator,
    )
    tune_wall = time.perf_counter() - start
    final = len(DEFAULT_ACCURACIES) - 1
    heuristic = tune_heuristic(
        HeuristicStrategy(sub_index=final, final_index=final),
        max_level=level,
        accuracies=DEFAULT_ACCURACIES,
        training=training,
        timing=CostModelTiming(profile),
    )
    print(f"tuned ({tune_wall:.1f}s): {plan_cycle_shape(tuned)}")
    print(f"heuristic 10^final:       {plan_cycle_shape(heuristic)}")

    ladder = []
    for i, accuracy in enumerate(DEFAULT_ACCURACIES):
        tuned_cost = tuned.time_on(profile, level, i)
        heuristic_cost = heuristic.time_on(profile, level, i)
        ladder.append(
            {
                "accuracy": accuracy,
                "tuned_cost_s": tuned_cost,
                "heuristic_cost_s": heuristic_cost,
                "speedup": heuristic_cost / tuned_cost if tuned_cost else 1.0,
            }
        )
        print(
            f"  p=1e{int(np.log10(accuracy)):<2d} tuned={tuned_cost:.3e}s  "
            f"heuristic={heuristic_cost:.3e}s  "
            f"speedup={ladder[-1]['speedup']:.2f}x"
        )

    target = DEFAULT_ACCURACIES[-1]
    tuned_wall = wallclock_solves(tuned, args.operator, level, target,
                                  args.seed, repeats)
    heuristic_wall = wallclock_solves(heuristic, args.operator, level, target,
                                      args.seed, repeats)
    print(
        f"wall-clock solve @1e{int(np.log10(target))}: tuned={tuned_wall * 1e3:.1f}ms  "
        f"heuristic={heuristic_wall * 1e3:.1f}ms"
    )

    from repro.kernels import backend_provenance, resolve_backend

    report = {
        "operator": args.operator,
        "level": level,
        "n": n,
        "machine": args.machine,
        "smoke": args.smoke,
        "provenance": backend_provenance(resolve_backend("auto")),
        "convergence_factors": factors,
        "worst_convergence_factor": worst_factor,
        "tune_wall_s": tune_wall,
        "tuned_cycle_shape": plan_cycle_shape(tuned),
        "heuristic_cycle_shape": plan_cycle_shape(heuristic),
        "ladder": ladder,
        "tuned_solve_wall_s": tuned_wall,
        "heuristic_solve_wall_s": heuristic_wall,
    }
    out_path = Path(args.json) if args.json else OUT_DIR / "bench_3d.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")

    failures = []
    if not factors or worst_factor > CONVERGENCE_FACTOR_BAR:
        failures.append(
            f"V-cycle convergence factor {worst_factor:.3f} exceeds "
            f"{CONVERGENCE_FACTOR_BAR}"
        )
    for row in ladder:
        if row["tuned_cost_s"] > row["heuristic_cost_s"] * (1.0 + 1e-9):
            failures.append(
                f"tuned plan prices worse than the fixed heuristic at "
                f"accuracy {row['accuracy']:g}: {row['tuned_cost_s']:.3e}s "
                f"vs {row['heuristic_cost_s']:.3e}s"
            )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
