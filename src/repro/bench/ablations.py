"""Ablation studies (README, "Experiments").

These are not paper figures; they probe the knobs the paper fixed
(accuracy-ladder size, training distribution, smoother, factorization
caching, discrete vs Pareto DP) to show which choices the headline results
depend on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accuracy.judge import AccuracyJudge
from repro.accuracy.reference import ReferenceSolutionCache
from repro.bench.experiments import _spec
from repro.machines.meter import OpMeter
from repro.machines.presets import get_preset
from repro.machines.profile import MachineProfile
from repro.relax.jacobi import jacobi_sweeps
from repro.relax.sor import sor_redblack
from repro.relax.weights import omega_opt
from repro.tuner.executor import PlanExecutor
from repro.tuner.pareto import ParetoTuner
from repro.tuner.plan import DEFAULT_ACCURACIES
from repro.tuner.spec import tune
from repro.util import format_table
from repro.util.validation import size_of_level
from repro.workloads.distributions import training_set

__all__ = [
    "ablation_accuracy_ladder",
    "ablation_factor_caching",
    "ablation_pareto_vs_discrete",
    "ablation_smoother",
    "ablation_training_distribution",
]

_TEST_SEED_OFFSET = 7919


@dataclass
class AblationResult:
    title: str
    table: str

    def format(self) -> str:
        return f"{self.title}\n{self.table}"


def _tuned_time(
    max_level: int,
    accuracies: tuple[float, ...],
    machine: MachineProfile,
    distribution: str,
    seed: int,
    target: float,
) -> float:
    spec = _spec(
        "multigrid-v", max_level, machine, distribution, seed,
        instances=2, accuracies=accuracies,
    )
    plan = tune(spec)
    return plan.time_on(machine, max_level, plan.accuracy_index(target))


def ablation_accuracy_ladder(
    max_level: int = 6,
    machine: str = "intel",
    distribution: str = "unbiased",
    target: float = 1e9,
    seed: int = 0,
) -> AblationResult:
    """How much does the multi-accuracy ladder buy over a single accuracy?

    Ladders from {1e9} alone (no internal accuracy freedom) up to the
    paper's five levels.
    """
    profile = get_preset(machine)
    ladders = {
        "m=1 {1e9}": (1e9,),
        "m=2 {1e3,1e9}": (1e3, 1e9),
        "m=3 {1e1,1e5,1e9}": (1e1, 1e5, 1e9),
        "m=5 paper ladder": DEFAULT_ACCURACIES,
    }
    rows = []
    base = None
    for name, ladder in ladders.items():
        t = _tuned_time(max_level, ladder, profile, distribution, seed, target)
        base = base or t
        rows.append((name, f"{t:.3e}", f"{base / t:.2f}x"))
    return AblationResult(
        title=(
            f"Accuracy-ladder ablation (target {target:g}, N="
            f"{size_of_level(max_level)}, {profile.name})"
        ),
        table=format_table(["ladder", "tuned time (s)", "speedup vs m=1"], rows),
    )


def ablation_training_distribution(
    max_level: int = 6,
    machine: str = "intel",
    target: float = 1e5,
    seed: int = 0,
    instances: int = 2,
) -> AblationResult:
    """Train on each distribution, evaluate on each (2x2 matrix).

    The paper: "If one wishes to obtain tuned multigrid cycles for a
    different input distribution, the training should be done using that
    data distribution."
    """
    profile = get_preset(machine)
    dists = ("unbiased", "biased")
    plans = {
        d: tune(_spec("multigrid-v", max_level, profile, d, seed, instances=instances))
        for d in dists
    }
    executor = PlanExecutor()
    cache = ReferenceSolutionCache()
    rows = []
    for train_d in dists:
        plan = plans[train_d]
        idx = plan.accuracy_index(target)
        for test_d in dists:
            n = size_of_level(max_level)
            problems = training_set(test_d, n, instances, seed + _TEST_SEED_OFFSET)
            total, achieved = 0.0, []
            for problem in problems:
                x = problem.initial_guess()
                judge = AccuracyJudge(x, cache.get(problem))
                meter = OpMeter()
                executor.run_v(plan, x, problem.b, idx, meter)
                total += profile.price(meter)
                achieved.append(judge.accuracy_of(x))
            rows.append(
                (
                    train_d,
                    test_d,
                    f"{total / len(problems):.3e}",
                    f"{min(achieved):.2e}",
                )
            )
    return AblationResult(
        title=f"Training-distribution ablation (target {target:g}, {profile.name})",
        table=format_table(
            ["trained on", "tested on", "time (s)", "worst achieved accuracy"], rows
        ),
    )


def ablation_smoother(
    level: int = 6,
    target: float = 1e3,
    seed: int = 0,
) -> AblationResult:
    """Red-black SOR vs weighted Jacobi: sweeps to a fixed accuracy.

    Reproduces the paper's stated reason for fixing SOR as the smoother
    ("it performed better than weighted Jacobi ... for similar computation
    cost per iteration").
    """
    n = size_of_level(level)
    problem = training_set("unbiased", n, 1, seed)[0]
    cache = ReferenceSolutionCache()
    x_opt = cache.get(problem)
    rows = []
    for name, weight, step in (
        ("SOR(w_opt)", omega_opt(n), lambda x, b, w: sor_redblack(x, b, w, 1)),
        ("SOR(1.15)", 1.15, lambda x, b, w: sor_redblack(x, b, w, 1)),
        ("Jacobi(2/3)", 2.0 / 3.0, lambda x, b, w: jacobi_sweeps(x, b, w, 1)),
    ):
        x = problem.initial_guess()
        judge = AccuracyJudge(x, x_opt)
        sweeps = 0
        while judge.accuracy_of(x) < target and sweeps < 20000:
            step(x, problem.b, weight)
            sweeps += 1
        rows.append((name, sweeps, f"{judge.accuracy_of(x):.2e}"))
    return AblationResult(
        title=f"Smoother ablation: sweeps to accuracy {target:g} at N={n}",
        table=format_table(["smoother", "sweeps", "achieved"], rows),
    )


def ablation_factor_caching(
    max_level: int = 6,
    machine: str = "intel",
    distribution: str = "unbiased",
    target: float = 1e9,
    seed: int = 0,
) -> AblationResult:
    """DPBSV-faithful (factor every call) vs cached-factorization pricing.

    The tuned plan's direct calls are re-priced as solve-only; with cheap
    direct solves the optimal plan itself may change, so we also re-tune
    under a cached-cost profile.
    """
    profile = get_preset(machine)
    plan = tune(_spec("multigrid-v", max_level, profile, distribution, seed, instances=2))
    idx = plan.accuracy_index(target)
    meter = plan.unit_meter(max_level, idx)
    faithful = profile.price(meter)
    cached_meter = OpMeter()
    for (op, n), count in meter.items():
        cached_meter.charge("direct_solve" if op == "direct" else op, n, count)
    cached = profile.price(cached_meter)
    rows = [
        ("factor every call (DPBSV)", f"{faithful:.3e}"),
        ("cached factorization (same plan)", f"{cached:.3e}"),
    ]
    return AblationResult(
        title=(
            f"Factorization-caching ablation (target {target:g}, N="
            f"{size_of_level(max_level)}, {profile.name})"
        ),
        table=format_table(["direct-solve pricing", "tuned time (s)"], rows),
    )


def ablation_pareto_vs_discrete(
    max_level: int = 4,
    machine: str = "intel",
    distribution: str = "unbiased",
    seed: int = 0,
) -> AblationResult:
    """Full Pareto DP (section 2.2) vs the discrete ladder (section 2.3).

    For each discrete accuracy, compare the discrete plan's tuned time with
    the fastest Pareto-front member meeting that accuracy.
    """
    profile = get_preset(machine)
    spec = _spec("multigrid-v", max_level, profile, distribution, seed, instances=2)
    plan = spec.build().tune()
    pareto_sets = ParetoTuner(
        max_level=max_level,
        training=spec.training(),
        timing=spec.timing(),
        max_set_size=16,
    ).tune()
    front = pareto_sets[max_level]
    rows = []
    for i, acc in enumerate(plan.accuracies):
        discrete_t = plan.time_on(profile, max_level, i)
        feasible = [p for p in front if p.accuracy >= acc]
        pareto_t = min((p.seconds for p in feasible), default=None)
        rows.append(
            (
                f"{acc:g}",
                f"{discrete_t:.3e}",
                "-" if pareto_t is None else f"{pareto_t:.3e}",
                "-" if pareto_t is None else f"{discrete_t / pareto_t:.2f}",
            )
        )
    return AblationResult(
        title=(
            f"Discrete vs Pareto DP at N={size_of_level(max_level)} "
            f"({profile.name}; front size {len(front)})"
        ),
        table=format_table(
            ["accuracy", "discrete time (s)", "pareto time (s)", "discrete/pareto"],
            rows,
        ),
    )
