"""Experiment drivers: one function per table/figure of the paper.

Every driver returns a result object carrying raw data plus ``format()``
producing the text table/diagram its ``repro-mg`` subcommand prints
(README, "Experiments").  All drivers are deterministic given (seed,
machine preset): every plan is tuned through :func:`~repro.tuner.spec.tune`
with the machine profile as pricing, numerics use seeded generators, and
cycle drawings are read off the plan.

Scaling note: paper sizes reach N = 4097 on 8-core servers; defaults here
cap at N = 129-257 so the full suite runs in minutes on one core.  Every
driver takes ``max_level`` to scale up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.accuracy.judge import AccuracyJudge
from repro.accuracy.reference import ReferenceSolutionCache
from repro.bench.fitting import PowerLawFit, fit_power_law
from repro.bench.parallel import simulate_trace
from repro.bench.report import Series, format_ratio_table, format_series_table
from repro.cycles.render import render_call_stack, render_cycle
from repro.cycles.shape import extract_shape
from repro.cycles.stats import cycle_stats
from repro.machines.meter import OpMeter
from repro.machines.presets import get_preset
from repro.machines.profile import MachineProfile
from repro.multigrid.solver import ReferenceFullMGSolver, ReferenceVSolver, SORSolver
from repro.tuner.executor import PlanExecutor
from repro.tuner.heuristics import HeuristicStrategy, tune_heuristic
from repro.tuner.plan import DEFAULT_ACCURACIES, TunedFullMGPlan, TunedVPlan
from repro.tuner.spec import TuneKey, TuneSpec, tune
from repro.util import format_table
from repro.util.validation import size_of_level
from repro.workloads.distributions import training_set

__all__ = [
    "CrossArchResult",
    "CycleShapeResult",
    "Fig6Result",
    "Fig7Result",
    "Fig9Result",
    "ReferenceComparisonResult",
    "Table1Result",
    "cross_architecture",
    "fig10_13_reference_comparison",
    "fig14_architectures",
    "fig4_call_stacks",
    "fig5_cycle_shapes",
    "fig6_algorithm_comparison",
    "fig7_heuristics",
    "fig9_parallel_scaling",
    "table1_complexity",
    "tune_pair",
]

_TEST_SEED_OFFSET = 7919  # keep test instances disjoint from training data


def _spec(
    kind: str,
    max_level: int,
    machine: MachineProfile,
    distribution: str,
    seed: int,
    instances: int = 3,
    accuracies: tuple[float, ...] = DEFAULT_ACCURACIES,
) -> TuneSpec:
    """The spec of a figure's tune, priced on ``machine``."""
    key = TuneKey(
        kind=kind,
        distribution=distribution,
        max_level=max_level,
        accuracies=accuracies,
        seed=seed,
        instances=instances,
    )
    return TuneSpec(key, pricing=machine)


def _tuned_v(
    max_level: int, machine: MachineProfile, distribution: str, seed: int
) -> TunedVPlan:
    return tune(_spec("multigrid-v", max_level, machine, distribution, seed))


def tune_pair(
    max_level: int,
    machine: MachineProfile,
    distribution: str,
    seed: int,
    instances: int = 3,
    accuracies: tuple[float, ...] = DEFAULT_ACCURACIES,
) -> tuple[TunedVPlan, TunedFullMGPlan]:
    """Tune (V, full-MG) plans for one machine/distribution: one full-MG
    tune, whose solve-phase V plan is tuned on the same training set."""
    fplan = tune(
        _spec("full-multigrid", max_level, machine, distribution, seed, instances, accuracies)
    )
    return fplan.vplan, fplan


# ---------------------------------------------------------------------------
# Table 1 (section 2): complexity of the three building blocks
# ---------------------------------------------------------------------------


@dataclass
class Table1Result:
    levels: list[int]
    cells: list[int]
    times: dict[str, list[float]]
    fits: dict[str, PowerLawFit]
    target_accuracy: float

    def format(self) -> str:
        series = [Series(name, [float(t) for t in ts]) for name, ts in self.times.items()]
        head = format_series_table("N", [size_of_level(k) for k in self.levels], series)
        rows = [
            (name, f"{fit.exponent:.2f}", f"{fit.r_squared:.4f}", paper)
            for (name, fit), paper in zip(
                self.fits.items(), ["2.0 (n^2)", "1.5 (n^1.5)", "1.0 (n)"]
            )
        ]
        tail = format_table(
            ["algorithm", "fitted exponent (in n = N^2)", "R^2", "paper"], rows
        )
        return (
            f"Time to accuracy {self.target_accuracy:g} (simulated seconds)\n"
            + head
            + "\n\n"
            + tail
        )


def table1_complexity(
    max_level: int = 7,
    machine: str | MachineProfile = "intel",
    distribution: str = "unbiased",
    target_accuracy: float = 1e5,
    seed: int = 0,
    min_fit_level: int = 4,
) -> Table1Result:
    """Empirical scaling of direct, SOR, and multigrid (section 2 table).

    Per-op costs are priced with zero overhead so the fit sees the
    asymptotic arithmetic, like the paper's complexity statement.
    """
    profile = get_preset(machine) if isinstance(machine, str) else machine
    # Strip fixed overheads: asymptotic exponents only.
    from dataclasses import replace

    asym = replace(
        profile, op_overhead=0.0, sync_overhead=0.0, direct_overhead=0.0, cores=1
    )
    levels = list(range(2, max_level + 1))
    times: dict[str, list[float]] = {"Direct": [], "SOR": [], "Multigrid": []}
    cache = ReferenceSolutionCache()
    for level in levels:
        n = size_of_level(level)
        problem = training_set(distribution, n, 1, seed + _TEST_SEED_OFFSET)[0]
        x_opt = cache.get(problem)
        times["Direct"].append(asym.direct_time(n))
        for name, solver in (("SOR", SORSolver()), ("Multigrid", ReferenceVSolver())):
            x = problem.initial_guess()
            judge = AccuracyJudge(x, x_opt)
            meter = OpMeter()
            solver.solve(x, problem.b, judge.accuracy_of, target_accuracy, meter)
            times[name].append(asym.price(meter))
    fits = {}
    fit_idx = [i for i, k in enumerate(levels) if k >= min_fit_level]
    if len(fit_idx) < 2:
        # Too few asymptotic points (tiny max_level): fit everything.
        fit_idx = list(range(len(levels)))
    for name, ts in times.items():
        ns = [float(size_of_level(levels[i]) ** 2) for i in fit_idx]
        fits[name] = fit_power_law(ns, [ts[i] for i in fit_idx])
    return Table1Result(
        levels=levels,
        cells=[size_of_level(k) ** 2 for k in levels],
        times=times,
        fits=fits,
        target_accuracy=target_accuracy,
    )


# ---------------------------------------------------------------------------
# Figure 4: call stacks of tuned MULTIGRID-V4
# ---------------------------------------------------------------------------


@dataclass
class CallStackResult:
    renders: dict[str, str]

    def format(self) -> str:
        parts = []
        for name, text in self.renders.items():
            parts.append(f"--- {name} ---\n{text}")
        return "\n\n".join(parts)


def fig4_call_stacks(
    max_level: int = 7,
    machine: str | MachineProfile = "intel",
    seed: int = 0,
    accuracy_index: int = 3,
) -> CallStackResult:
    """Call stacks of MULTIGRID-V4 for unbiased and biased training
    (paper: N=4097 on the Intel machine; scaled down by default)."""
    profile = get_preset(machine) if isinstance(machine, str) else machine
    renders = {}
    for dist in ("unbiased", "biased"):
        plan = _tuned_v(max_level, profile, dist, seed)
        renders[f"{dist} (machine={profile.name}, N={size_of_level(max_level)})"] = (
            render_call_stack(plan, max_level, accuracy_index)
        )
    return CallStackResult(renders=renders)


# ---------------------------------------------------------------------------
# Figures 5 and 14: tuned cycle shapes
# ---------------------------------------------------------------------------


@dataclass
class CycleShapeResult:
    renders: dict[str, str]
    stats: dict[str, object]

    def format(self) -> str:
        parts = []
        for name, text in self.renders.items():
            parts.append(f"--- {name} ---\n{text}")
        return "\n\n".join(parts)


def _cycle(
    plan: TunedVPlan | TunedFullMGPlan, level: int, acc_index: int
) -> tuple[str, object]:
    shape = extract_shape(plan.trace(level, acc_index))
    return render_cycle(shape), cycle_stats(shape)


def fig5_cycle_shapes(
    max_level: int = 6,
    machine: str | MachineProfile = "amd",
    seed: int = 0,
    targets: Sequence[float] = (1e1, 1e3, 1e5, 1e7),
) -> CycleShapeResult:
    """Tuned V and full-MG cycles on the AMD profile for both input
    distributions (paper Figure 5, N=2049; scaled by default)."""
    profile = get_preset(machine) if isinstance(machine, str) else machine
    renders: dict[str, str] = {}
    stats: dict[str, object] = {}
    for dist in ("unbiased", "biased"):
        vplan, fplan = tune_pair(max_level, profile, dist, seed)
        for kind, plan in (("V", vplan), ("full-MG", fplan)):
            for t in targets:
                idx = plan.accuracy_index(t)
                key = f"{kind} cycle, {dist}, accuracy {t:g} ({profile.name})"
                renders[key], stats[key] = _cycle(plan, max_level, idx)
    return CycleShapeResult(renders=renders, stats=stats)


def fig14_architectures(
    max_level: int = 6,
    target: float = 1e5,
    distribution: str = "unbiased",
    seed: int = 0,
    machines: Sequence[str] = ("intel", "amd", "sun"),
) -> CycleShapeResult:
    """Tuned full-MG cycles across the three testbed profiles (Figure 14)."""
    renders: dict[str, str] = {}
    stats: dict[str, object] = {}
    for name in machines:
        profile = get_preset(name)
        _, fplan = tune_pair(max_level, profile, distribution, seed)
        idx = fplan.accuracy_index(target)
        key = f"full-MG cycle, {profile.name}, accuracy {target:g}"
        renders[key], stats[key] = _cycle(fplan, max_level, idx)
    return CycleShapeResult(renders=renders, stats=stats)


# ---------------------------------------------------------------------------
# Figure 6: autotuned vs basic algorithms, accuracy 1e9
# ---------------------------------------------------------------------------


@dataclass
class Fig6Result:
    levels: list[int]
    sizes: list[int]
    series: list[Series]
    achieved: dict[str, list[float]]

    def format(self) -> str:
        return format_series_table("N", self.sizes, self.series)


def fig6_algorithm_comparison(
    max_level: int = 7,
    machine: str | MachineProfile = "intel",
    distribution: str = "unbiased",
    target: float = 1e9,
    seed: int = 0,
    instances: int = 2,
) -> Fig6Result:
    """Direct / SOR / simple multigrid / autotuned, time to accuracy 1e9."""
    profile = get_preset(machine) if isinstance(machine, str) else machine
    plan = _tuned_v(max_level, profile, distribution, seed)
    top = plan.accuracy_index(target)
    cache = ReferenceSolutionCache()
    executor = PlanExecutor()
    levels = list(range(2, max_level + 1))
    names = ("Direct", "SOR", "Multigrid", "Autotuned")
    series = {name: Series(name) for name in names}
    achieved: dict[str, list[float]] = {name: [] for name in names}
    for level in levels:
        n = size_of_level(level)
        problems = training_set(distribution, n, instances, seed + _TEST_SEED_OFFSET)
        sums = {name: 0.0 for name in names}
        accs = {name: [] for name in names}
        for problem in problems:
            x_opt = cache.get(problem)
            # Direct: priced exactly, achieves machine precision.
            sums["Direct"] += profile.direct_time(n)
            x0 = problem.initial_guess()
            judge = AccuracyJudge(x0, x_opt)
            accs["Direct"].append(float("inf"))
            for name, solver in (
                ("SOR", SORSolver()),
                ("Multigrid", ReferenceVSolver()),
            ):
                x = problem.initial_guess()
                meter = OpMeter()
                solver.solve(x, problem.b, judge.accuracy_of, target, meter)
                sums[name] += profile.price(meter)
                accs[name].append(judge.accuracy_of(x))
            x = problem.initial_guess()
            meter = OpMeter()
            executor.run_v(plan, x, problem.b, top, meter)
            sums["Autotuned"] += profile.price(meter)
            accs["Autotuned"].append(judge.accuracy_of(x))
        for name in names:
            series[name].add(sums[name] / len(problems))
            achieved[name].append(float(np.median(accs[name])))
    return Fig6Result(
        levels=levels,
        sizes=[size_of_level(k) for k in levels],
        series=[series[n] for n in names],
        achieved=achieved,
    )


# ---------------------------------------------------------------------------
# Figures 7/8: heuristic strategies vs the autotuner
# ---------------------------------------------------------------------------


@dataclass
class Fig7Result:
    levels: list[int]
    sizes: list[int]
    series: list[Series]  # absolute times; Autotuned last
    accuracies: tuple[float, ...]

    def format(self) -> str:
        return format_series_table("N", self.sizes, self.series)

    def format_ratios(self) -> str:
        """Figure 8: every strategy relative to the autotuned time."""
        baseline = self.series[-1]
        return format_ratio_table("N", self.sizes, baseline, self.series)


def fig7_heuristics(
    max_level: int = 7,
    machine: str | MachineProfile = "intel",
    distribution: str = "biased",
    seed: int = 0,
    min_level: int = 4,
) -> Fig7Result:
    """Strategy 10^9 and 10^x/10^9 heuristics vs the autotuned algorithm.

    Times are per-plan unit prices at each level's top-accuracy slot —
    the cost of one tuned solve to accuracy 10^9, exactly what Figure 7
    plots against input size.
    """
    profile = get_preset(machine) if isinstance(machine, str) else machine
    spec = _spec("multigrid-v", max_level, profile, distribution, seed)
    accuracies = spec.key.accuracies
    final_index = len(accuracies) - 1
    training = spec.training()
    timing = spec.timing()
    levels = list(range(min_level, max_level + 1))
    series: list[Series] = []
    for sub in range(final_index, -1, -1):
        strategy = HeuristicStrategy(sub_index=sub, final_index=final_index)
        plan = tune_heuristic(
            strategy, max_level, accuracies, training, timing,
        )
        s = Series(plan.metadata["heuristic"])
        for level in levels:
            s.add(plan.time_on(profile, level, final_index))
        series.append(s)
    auto = spec.build(training).tune()
    s = Series("Autotuned")
    for level in levels:
        s.add(auto.time_on(profile, level, final_index))
    series.append(s)
    return Fig7Result(
        levels=levels,
        sizes=[size_of_level(k) for k in levels],
        series=series,
        accuracies=accuracies,
    )


# ---------------------------------------------------------------------------
# Figure 9: parallel scalability
# ---------------------------------------------------------------------------


@dataclass
class Fig9Result:
    threads: list[int]
    speedups: list[float]
    makespans: list[float]

    def format(self) -> str:
        rows = [
            (t, f"{m:.3e}", f"{s:.2f}")
            for t, m, s in zip(self.threads, self.makespans, self.speedups)
        ]
        return format_table(["threads", "simulated time (s)", "speedup"], rows)


def fig9_parallel_scaling(
    max_level: int = 7,
    machine: str | MachineProfile = "intel",
    distribution: str = "unbiased",
    target: float = 1e9,
    seed: int = 0,
    max_threads: int = 8,
) -> Fig9Result:
    """Speedup of the tuned algorithm as worker threads are added,
    via the virtual-time work-stealing scheduler."""
    profile = get_preset(machine) if isinstance(machine, str) else machine
    plan = _tuned_v(max_level, profile, distribution, seed)
    trace = plan.trace(max_level, plan.accuracy_index(target))
    threads = list(range(1, max_threads + 1))
    makespans = []
    for t in threads:
        makespans.append(simulate_trace(trace, profile, workers=t).makespan)
    speedups = [makespans[0] / m for m in makespans]
    return Fig9Result(threads=threads, speedups=speedups, makespans=makespans)


# ---------------------------------------------------------------------------
# Figures 10-13: autotuned vs reference algorithms across machines
# ---------------------------------------------------------------------------


@dataclass
class ReferenceComparisonResult:
    machine: str
    distribution: str
    target: float
    levels: list[int]
    sizes: list[int]
    series: list[Series]  # ReferenceV, ReferenceFullMG, AutotunedV, AutotunedFullMG
    speedup_at_top: dict[str, float]

    def format(self) -> str:
        baseline = self.series[0]
        table = format_ratio_table("N", self.sizes, baseline, self.series)
        extra = ", ".join(f"{k}: {v:.2f}x" for k, v in self.speedup_at_top.items())
        return (
            f"machine={self.machine} distribution={self.distribution} "
            f"target={self.target:g}\nrelative time vs reference V (lower is "
            f"better)\n{table}\nspeedup vs reference full MG at N="
            f"{self.sizes[-1]}: {extra}"
        )


def fig10_13_reference_comparison(
    max_level: int = 7,
    machine: str | MachineProfile = "intel",
    distribution: str = "unbiased",
    target: float = 1e5,
    seed: int = 0,
    instances: int = 2,
    plans: tuple[TunedVPlan, TunedFullMGPlan] | None = None,
) -> ReferenceComparisonResult:
    """One panel of Figures 10-13: reference V / reference full MG /
    autotuned V / autotuned full MG, relative to reference V."""
    profile = get_preset(machine) if isinstance(machine, str) else machine
    vplan, fplan = plans if plans is not None else tune_pair(
        max_level, profile, distribution, seed
    )
    v_idx = vplan.accuracy_index(target)
    f_idx = fplan.accuracy_index(target)
    cache = ReferenceSolutionCache()
    executor = PlanExecutor()
    levels = list(range(2, max_level + 1))
    names = ("Reference V", "Reference Full MG", "Autotuned V", "Autotuned Full MG")
    series = {name: Series(name) for name in names}
    for level in levels:
        n = size_of_level(level)
        problems = training_set(distribution, n, instances, seed + _TEST_SEED_OFFSET)
        sums = {name: 0.0 for name in names}
        for problem in problems:
            x_opt = cache.get(problem)
            x0 = problem.initial_guess()
            judge = AccuracyJudge(x0, x_opt)
            for name, solver in (
                ("Reference V", ReferenceVSolver()),
                ("Reference Full MG", ReferenceFullMGSolver()),
            ):
                x = problem.initial_guess()
                meter = OpMeter()
                solver.solve(x, problem.b, judge.accuracy_of, target, meter)
                sums[name] += profile.price(meter)
            x = problem.initial_guess()
            meter = OpMeter()
            executor.run_v(vplan, x, problem.b, v_idx, meter)
            sums["Autotuned V"] += profile.price(meter)
            x = problem.initial_guess()
            meter = OpMeter()
            executor.run_full_mg(fplan, x, problem.b, f_idx, meter)
            sums["Autotuned Full MG"] += profile.price(meter)
        for name in names:
            series[name].add(sums[name] / len(problems))
    ref_fmg_top = series["Reference Full MG"].values[-1]
    speedups = {
        "Autotuned V": ref_fmg_top / series["Autotuned V"].values[-1],
        "Autotuned Full MG": ref_fmg_top / series["Autotuned Full MG"].values[-1],
    }
    return ReferenceComparisonResult(
        machine=profile.name,
        distribution=distribution,
        target=target,
        levels=levels,
        sizes=[size_of_level(k) for k in levels],
        series=[series[n] for n in names],
        speedup_at_top=speedups,
    )


# ---------------------------------------------------------------------------
# Section 4.3: cross-architecture tuning penalty
# ---------------------------------------------------------------------------


@dataclass
class CrossArchResult:
    target: float
    entries: list[tuple[str, str, float]]  # (trained_on, run_on, slowdown %)

    def format(self) -> str:
        rows = [
            (trained, run, f"{pct:+.1f}%")
            for trained, run, pct in self.entries
        ]
        return format_table(
            ["trained on", "run on", "slowdown vs native tuning"], rows
        )


def cross_architecture(
    max_level: int = 6,
    machines: Sequence[str] = ("intel", "sun"),
    distribution: str = "unbiased",
    target: float = 1e5,
    seed: int = 0,
) -> CrossArchResult:
    """Run each machine's tuned full-MG plan on the other machine
    (paper: Niagara-trained on Xeon = +29%, Xeon-trained on Niagara = +79%)."""
    profiles = [get_preset(m) if isinstance(m, str) else m for m in machines]
    plans = {
        p.name: tune_pair(max_level, p, distribution, seed)[1] for p in profiles
    }
    entries = []
    for runner in profiles:
        native = plans[runner.name]
        native_time = native.time_on(runner, max_level, native.accuracy_index(target))
        for trainer in profiles:
            if trainer.name == runner.name:
                continue
            foreign = plans[trainer.name]
            t = foreign.time_on(runner, max_level, foreign.accuracy_index(target))
            entries.append(
                (trainer.name, runner.name, 100.0 * (t / native_time - 1.0))
            )
    return CrossArchResult(target=target, entries=entries)
