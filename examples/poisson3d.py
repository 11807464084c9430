"""3-D workloads, end to end.

Run:  python examples/poisson3d.py

What it does:
1. solves a 3-D Poisson problem with the standard V cycle and shows the
   per-cycle residual contraction (the dimension-general kernels: 7-point
   stencils, 27-point full weighting, trilinear interpolation),
2. autotunes 3-D plans — isotropic and per-axis anisotropic — and
   compares the tuned cycle shapes and costs against the paper's fixed
   heuristic on the same cost model,
3. serves 3-D traffic through the registry-backed service path, so the
   tuned 3-D plans are stored under their own ``ndim=3`` keys next to
   the 2-D ones (`repro-mg store tune --ndim 3` is the CLI spelling).
"""

import tempfile
from pathlib import Path

from repro.core import autotune, poisson_problem, solve, solve_service
from repro.grids.norms import residual_norm
from repro.multigrid import v_plan
from repro.operators import shared_operator
from repro.store.sink import plan_cycle_shape
from repro.tuner.executor import PlanExecutor
from repro.tuner.heuristics import HeuristicStrategy, tune_heuristic
from repro.tuner.plan import DEFAULT_ACCURACIES
from repro.tuner.timing import CostModelTiming
from repro.tuner.training import TrainingData
from repro.machines.presets import get_preset

MAX_LEVEL = 4  # N = 17 per side (17**3 unknowns); raise for bigger runs
OPERATORS = ("poisson3d", "anisotropic3d(epsx=0.01)")


def main() -> None:
    n = 2**MAX_LEVEL + 1

    print("1) standard V(1,1) cycles on 3-D Poisson:")
    problem = poisson_problem("unbiased", n=n, seed=7, ndim=3)
    op = shared_operator("poisson3d", n)
    executor, plan = PlanExecutor(operator="poisson3d"), v_plan(MAX_LEVEL, ndim=3)
    x = problem.initial_guess()
    prev = residual_norm(op.residual(x, problem.b))
    for cycle in range(1, 5):
        executor.run_v(plan, x, problem.b, 0)
        cur = residual_norm(op.residual(x, problem.b))
        print(f"   cycle {cycle}: residual {cur:.3e}  (factor {cur / prev:.3f})")
        prev = cur

    print("\n2) tuned 3-D plans vs the fixed heuristic (cost model):")
    profile = get_preset("intel")
    final = len(DEFAULT_ACCURACIES) - 1
    for name in OPERATORS:
        plan = autotune(
            max_level=MAX_LEVEL, machine=profile, instances=2, seed=0, operator=name
        )
        heuristic = tune_heuristic(
            HeuristicStrategy(sub_index=final, final_index=final),
            max_level=MAX_LEVEL,
            accuracies=DEFAULT_ACCURACIES,
            training=TrainingData(instances=2, seed=0, operator=name),
            timing=CostModelTiming(profile),
        )
        tuned_cost = plan.time_on(profile, MAX_LEVEL, final)
        heur_cost = heuristic.time_on(profile, MAX_LEVEL, final)
        print(f"   {name:<26} shape: {plan_cycle_shape(plan)}")
        print(
            f"   {'':<26} tuned {tuned_cost:.3e}s vs heuristic {heur_cost:.3e}s "
            f"({heur_cost / tuned_cost:.2f}x)"
        )
        prob = poisson_problem("unbiased", n=n, seed=7, operator=name)
        solution, meter = solve(plan, prob, 1e5)
        print(
            f"   {'':<26} solve @1e5 ops: "
            + ", ".join(f"{op_}x{c}" for (op_, _), c in sorted(meter.items()))
        )

    print("\n3) registry-backed 3-D serving (plans stored under ndim=3 keys):")
    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "store.sqlite"
        prob = poisson_problem("unbiased", n=n, seed=1, ndim=3)
        for call in (1, 2):
            _, _, hit = solve_service(prob, 1e5, instances=2, store=store)
            print(f"   call {call}: plan source = {hit.source}")


if __name__ == "__main__":
    main()
