"""The paper's tables and figures in priced and measured seconds.

One driver for table 1, figs 4-8 and 10-14, the section 4.3
cross-architecture penalty and five ablations::

    python benchmarks/paper_figures.py                   # full run, L6-L7
    python benchmarks/paper_figures.py --smoke           # level 4, seconds
    python benchmarks/paper_figures.py --out benchmarks  # the committed run

A timing *cell* is (figure, machine, family, distribution, level, target,
algorithm).  Each cell gets one row per timed repetition, its key fields
apart from its result fields:

* ``priced_s`` — the analytic machine profile's seconds for one solve, as
  the tuner prices it: the mean over the held-out draws of
  ``profile.price(meter)``, or ``plan.time_on`` for figs 7/8 and the
  cross-architecture cells;
* ``measured_s`` — wall-clock seconds of one solve on this host, the mean
  over the held-out draws of one repetition.  Repetitions run round-robin
  across a group's algorithms after one untimed run of each, so
  factorizations and kernel binds are warm; the initial-guess copy is
  outside the timer.  A cell's figure is the min over its repetitions;
* ``accuracy`` — the worst delivered accuracy over the held-out draws,
  judged against the reference solution; ``null`` when every draw is
  solved exactly (zero error, an infinite accuracy ratio).

Every algorithm is timed open-loop on one shared, warm
:class:`~repro.tuner.executor.PlanExecutor` per group, with no accuracy
check inside the timer.  Tuned plans run at their target's slot.  The
reference algorithms' untimed run is the closed loop of the
``repro.multigrid`` solvers, which counts the iterations each draw needs;
the timed runs replay that many iterations of the same fixed plans
(``sor_plan``, ``v_plan``, ``full_mg_plan``).  Direct runs the operator's
``direct_solve``.  Figs 4, 5 and 14 render the plans'
``trace()``; the ablations print priced tables.  Rows, renders, the host
fingerprint and the git revision go to ``<out>/BENCH_paper.json``.  A
full run exits 1 when one of the paper's priced-shape claims fails
(:func:`check`).
"""

from __future__ import annotations

import argparse
import math
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.accuracy.judge import AccuracyJudge
from repro.accuracy.reference import ReferenceSolutionCache
from repro.kernels import backend_provenance
from repro.machines.meter import OpMeter
from repro.machines.presets import get_preset
from repro.machines.profile import MachineProfile
from repro.multigrid.solver import (
    ReferenceFullMGSolver,
    ReferenceVSolver,
    SORSolver,
    full_mg_plan,
    sor_plan,
    v_plan,
)
from repro.obs.bench import write_bench_report
from repro.operators.spec import shared_operator
from repro.relax.jacobi import jacobi_sweeps
from repro.relax.sor import sor_redblack
from repro.relax.weights import omega_opt
from repro.tuner.choices import DirectChoice, EstimateChoice, RecurseChoice, SORChoice
from repro.tuner.executor import PlanExecutor
from repro.tuner.heuristics import HeuristicStrategy, tune_heuristic
from repro.tuner.pareto import ParetoTuner
from repro.tuner.plan import DEFAULT_ACCURACIES, TunedFullMGPlan, TunedVPlan
from repro.tuner.spec import TuneKey, TuneSpec, tune, tune_pair
from repro.util import format_table
from repro.util.validation import level_of_size, size_of_level
from repro.workloads.distributions import training_set

ROOT = Path(__file__).resolve().parents[1]
CELL_FIELDS = ("figure", "machine", "family", "distribution", "level", "target", "algorithm")
KEY_FIELDS = CELL_FIELDS + ("rep",)
RESULT_FIELDS = ("priced_s", "measured_s", "accuracy")
#: fig 7/8 families: the paper's operator plus two whose priced and
#: measured orderings part
FAMILIES = ("poisson", "anisotropic", "varcoeff")
#: the algorithm a figure's ratio columns divide by (cross-arch: native)
BASELINE = {"fig6": "Autotuned", "fig7": "Autotuned", "fig10-13": "Reference V"}
SEED = 0  # every tune's training draws and every held-out draw
TEST_SEED_OFFSET = 7919  # held-out draws stay disjoint from training data
NATIVE = "tuned on "


@lru_cache(maxsize=None)
def _tuned_v(
    max_level: int,
    distribution: str,
    instances: int = 3,
    accuracies: tuple[float, ...] = DEFAULT_ACCURACIES,
) -> TunedVPlan:
    """A V plan tuned on the Intel profile."""
    key = TuneKey(
        kind="multigrid-v",
        distribution=distribution,
        max_level=max_level,
        accuracies=accuracies,
        seed=SEED,
        instances=instances,
    )
    return tune(TuneSpec(key, pricing=get_preset("intel")))


@lru_cache(maxsize=None)
def _pair(max_level: int, machine: str, distribution: str):
    return tune_pair(max_level, get_preset(machine), distribution, SEED)


# -- timing cells -------------------------------------------------------------


Replay = Callable[[np.ndarray, np.ndarray], object]


@dataclass(frozen=True)
class Algorithm:
    """One algorithm of a cell group.

    ``solve(x, b, accuracy_of, meter)`` is the untimed, metered solve of
    one draw, on ``x`` in place; it returns ``replay(x, b)``, the same
    solve of that draw for the timer, open-loop and unmetered.
    ``priced`` maps the meters of one solve per held-out draw to the
    priced seconds of one solve.
    """

    name: str
    solve: Callable[[np.ndarray, np.ndarray, Callable, OpMeter], Replay]
    priced: Callable[[list[OpMeter]], float]


def _mean(price: Callable[[OpMeter], float]) -> Callable[[list[OpMeter]], float]:
    def priced(meters: list[OpMeter]) -> float:
        total = 0.0
        for meter in meters:
            total += price(meter)
        return total / len(meters)

    return priced


def _fixed(seconds: float) -> Callable[[list[OpMeter]], float]:
    return lambda meters: seconds


def _direct(profile: MachineProfile, n: int) -> Algorithm:
    op = shared_operator(None, n)

    def solve(x, b, accuracy_of, meter) -> Replay:
        op.direct_solve(x, b)
        return op.direct_solve

    return Algorithm("Direct", solve, _mean(lambda meter: profile.direct_time(n)))


def _runner(executor: PlanExecutor, plan) -> Callable:
    return executor.run_full_mg if isinstance(plan, TunedFullMGPlan) else executor.run_v


#: reference algorithm -> (closed-loop solver, its first plan, every later plan)
REFERENCES = {
    "SOR": (SORSolver, sor_plan, sor_plan),
    "Multigrid": (ReferenceVSolver, v_plan, v_plan),
    "Reference V": (ReferenceVSolver, v_plan, v_plan),
    "Reference Full MG": (ReferenceFullMGSolver, full_mg_plan, v_plan),
}


def _reference(
    name: str, target: float, profile: MachineProfile, executor: PlanExecutor
) -> Algorithm:
    """A reference algorithm: closed-loop when untimed, replayed open-loop
    on ``executor`` for the timer."""
    solver, first, step = REFERENCES[name]

    def solve(x, b, accuracy_of, meter) -> Replay:
        iterations = solver().solve(x, b, accuracy_of, target, meter)
        level = level_of_size(x.shape[0])
        plans = [first(level)] + [step(level)] * (iterations - 1)
        runs = [(_runner(executor, plan), plan) for plan in plans[:iterations]]

        def replay(x, b) -> None:
            for run, plan in runs:
                run(plan, x, b, 0, None)

        return replay

    return Algorithm(name, solve, _mean(profile.price))


def _plan(name: str, plan, acc_index: int, executor: PlanExecutor, priced) -> Algorithm:
    run = _runner(executor, plan)
    replay = lambda x, b: run(plan, x, b, acc_index, None)

    def solve(x, b, accuracy_of, meter) -> Replay:
        run(plan, x, b, acc_index, meter)
        return replay

    return Algorithm(name, solve, priced)


def measure(
    cell: dict,
    algorithms: Sequence[Algorithm],
    problems: Sequence,
    reps: int,
    cache: ReferenceSolutionCache,
) -> list[dict]:
    """The rows of one cell group: every algorithm on every held-out draw.

    The first run of each algorithm is untimed; it yields the meters the
    priced seconds come from, the delivered accuracy and each draw's
    replay.  Then ``reps`` timed rounds of the replays run round-robin
    across the algorithms.
    """
    judges = [AccuracyJudge(p.initial_guess(), cache.get(p)) for p in problems]
    priced, accuracy, replays = {}, {}, {}
    for alg in algorithms:
        meters, achieved, replays[alg.name] = [], [], []
        for problem, judge in zip(problems, judges):
            x, meter = problem.initial_guess(), OpMeter()
            replays[alg.name].append(alg.solve(x, problem.b, judge.accuracy_of, meter))
            meters.append(meter)
            achieved.append(judge.accuracy_of(x))
        worst = min(achieved)
        priced[alg.name] = alg.priced(meters)
        accuracy[alg.name] = None if math.isinf(worst) else worst
    rows = []
    for rep in range(reps):
        for alg in algorithms:
            elapsed = 0.0
            for problem, replay in zip(problems, replays[alg.name]):
                x = problem.initial_guess()
                start = time.perf_counter()
                replay(x, problem.b)
                elapsed += time.perf_counter() - start
            result = {
                "priced_s": priced[alg.name],
                "measured_s": elapsed / len(problems),
                "accuracy": accuracy[alg.name],
            }
            rows.append({"key": dict(cell, algorithm=alg.name, rep=rep), "result": result})
    return rows


def _draws(distribution: str, level: int, count: int, family: str = "poisson"):
    n = size_of_level(level)
    return training_set(distribution, n, count, SEED + TEST_SEED_OFFSET, operator=family)


def _cell(figure, machine, level, target, distribution="unbiased", family="poisson") -> dict:
    return dict(zip(CELL_FIELDS, (figure, machine, family, distribution, level, target)))


def table1(max_level: int = 7, reps: int = 5) -> list[dict]:
    """Direct, SOR and multigrid to accuracy 1e5 on unbiased draws
    (section 2's table).

    The Intel profile is priced with zero overheads, so the priced fit
    sees the asymptotic arithmetic the paper's complexity statement is
    about.
    """
    asym = replace(
        get_preset("intel"), op_overhead=0.0, sync_overhead=0.0, direct_overhead=0.0, cores=1
    )
    target, executor, cache = 1e5, PlanExecutor(), ReferenceSolutionCache()
    rows = []
    for level in range(2, max_level + 1):
        algorithms = [
            _direct(asym, size_of_level(level)),
            _reference("SOR", target, asym, executor),
            _reference("Multigrid", target, asym, executor),
        ]
        cell = _cell("table1", asym.name, level, target)
        rows += measure(cell, algorithms, _draws("unbiased", level, 1), reps, cache)
    return rows


def fig6(max_level: int = 7, draws: int = 2, reps: int = 5) -> list[dict]:
    """Direct / SOR / simple multigrid / autotuned to accuracy 1e9 on
    unbiased draws, priced on the Intel profile."""
    profile, target = get_preset("intel"), 1e9
    plan = _tuned_v(max_level, "unbiased")
    executor, cache = PlanExecutor(), ReferenceSolutionCache()
    top = plan.accuracy_index(target)
    tuned = _plan("Autotuned", plan, top, executor, _mean(profile.price))
    rows = []
    for level in range(2, max_level + 1):
        algorithms = [
            _direct(profile, size_of_level(level)),
            _reference("SOR", target, profile, executor),
            _reference("Multigrid", target, profile, executor),
            tuned,
        ]
        cell = _cell("fig6", profile.name, level, target)
        rows += measure(cell, algorithms, _draws("unbiased", level, draws), reps, cache)
    return rows


def fig7(
    max_level: int = 7,
    reps: int = 5,
    families: Sequence[str] = FAMILIES,
    min_level: int = 4,
) -> list[dict]:
    """Strategy 10^9 and 10^x/10^9 against the autotuner (figs 7 and 8),
    biased training and one held-out draw, priced on the Intel profile.

    Priced seconds are each plan's unit price at the top-accuracy slot of
    each level, as the tuner prices them.
    """
    profile, distribution = get_preset("intel"), "biased"
    cache = ReferenceSolutionCache()
    rows = []
    for family in families:
        key = TuneKey(
            distribution=distribution, max_level=max_level, seed=SEED, operator=family
        )
        spec = TuneSpec(key, pricing=profile)
        final = len(key.accuracies) - 1
        training, timing = spec.training(), spec.timing()
        plans = []
        for sub in range(final, -1, -1):
            strategy = HeuristicStrategy(sub_index=sub, final_index=final)
            plan = tune_heuristic(strategy, max_level, key.accuracies, training, timing)
            plans.append((plan.metadata["heuristic"], plan))
        plans.append(("Autotuned", spec.build(training).tune()))
        executor = PlanExecutor(operator=family)
        for level in range(min_level, max_level + 1):
            algorithms = [
                _plan(name, plan, final, executor, _fixed(plan.time_on(profile, level, final)))
                for name, plan in plans
            ]
            problems = _draws(distribution, level, 1, family)
            target = key.accuracies[final]
            cell = _cell("fig7", profile.name, level, target, distribution, family)
            rows += measure(cell, algorithms, problems, reps, cache)
    return rows


def fig10_13(
    max_level: int = 6,
    machine: str = "intel",
    distribution: str = "unbiased",
    target: float = 1e5,
    draws: int = 2,
    reps: int = 5,
) -> list[dict]:
    """One panel of figs 10-13: reference V / full MG against tuned V / full MG."""
    profile = get_preset(machine)
    executor, cache = PlanExecutor(), ReferenceSolutionCache()
    vplan, fplan = _pair(max_level, machine, distribution)
    tuned = [
        _plan(name, plan, plan.accuracy_index(target), executor, _mean(profile.price))
        for name, plan in (("Autotuned V", vplan), ("Autotuned Full MG", fplan))
    ]
    rows = []
    for level in range(2, max_level + 1):
        algorithms = [
            _reference("Reference V", target, profile, executor),
            _reference("Reference Full MG", target, profile, executor),
            *tuned,
        ]
        cell = _cell("fig10-13", profile.name, level, target, distribution)
        rows += measure(cell, algorithms, _draws(distribution, level, draws), reps, cache)
    return rows


def cross_arch(max_level: int = 6, reps: int = 5, draws: int = 2) -> list[dict]:
    """The Intel and Sun tuned full-MG plans priced on both machines
    (section 4.3), at accuracy 1e5 on unbiased draws."""
    machines, target = ("intel", "sun"), 1e5
    plans = {get_preset(m).name: _pair(max_level, m, "unbiased")[1] for m in machines}
    executor, cache = PlanExecutor(), ReferenceSolutionCache()
    problems = _draws("unbiased", max_level, draws)
    rows = []
    for runner in map(get_preset, machines):
        algorithms = []
        for trainer, plan in plans.items():
            idx = plan.accuracy_index(target)
            priced = _fixed(plan.time_on(runner, max_level, idx))
            algorithms.append(_plan(NATIVE + trainer, plan, idx, executor, priced))
        cell = _cell("cross-arch", runner.name, max_level, target)
        rows += measure(cell, algorithms, problems, reps, cache)
    return rows


# -- reading rows -------------------------------------------------------------


def select(rows: Iterable[dict], **key) -> list[dict]:
    """The rows whose key fields equal ``key``."""
    return [r for r in rows if all(r["key"][f] == v for f, v in key.items())]


def cells(rows: Iterable[dict]) -> list[dict]:
    """One summary per cell, in first-seen order: its :data:`CELL_FIELDS`,
    priced seconds and accuracy, and the min of its measured seconds."""
    out: dict[tuple, dict] = {}
    for row in rows:
        key = tuple(row["key"][f] for f in CELL_FIELDS)
        if key in out:
            out[key]["measured_s"] = min(out[key]["measured_s"], row["result"]["measured_s"])
        else:
            out[key] = dict(zip(CELL_FIELDS, key), **row["result"])
    return list(out.values())


def priced_series(rows: Iterable[dict]) -> dict[str, list[float]]:
    """Algorithm -> priced seconds by level, over one figure panel."""
    series: dict[str, list[float]] = {}
    for cell in cells(rows):
        series.setdefault(cell["algorithm"], []).append(cell["priced_s"])
    return series


def speedup_at_top(rows: Sequence[dict]) -> dict[str, float]:
    """Figs 10-13: priced reference full MG over each tuned plan, top level."""
    series = priced_series(rows)
    ref = series["Reference Full MG"][-1]
    return {name: ref / series[name][-1] for name in ("Autotuned V", "Autotuned Full MG")}


def cross_penalties(rows: Iterable[dict]) -> list[tuple[str, str, float]]:
    """(trained on, run on, priced slowdown % against native tuning)."""
    by_runner: dict[str, dict[str, float]] = {}
    for cell in cells(rows):
        trainer = cell["algorithm"].removeprefix(NATIVE)
        by_runner.setdefault(cell["machine"], {})[trainer] = cell["priced_s"]
    return [
        (trainer, runner, 100.0 * (t / times[runner] - 1.0))
        for runner, times in by_runner.items()
        for trainer, t in times.items()
        if trainer != runner
    ]


@dataclass(frozen=True)
class PowerLawFit:
    """time ~ coefficient * n**exponent, fitted in log-log space."""

    exponent: float
    coefficient: float
    r_squared: float


def fit_power_law(ns: Sequence[float], times: Sequence[float]) -> PowerLawFit:
    lx = np.log(np.asarray(ns, dtype=float))
    ly = np.log(np.asarray(times, dtype=float))
    a = np.vstack([np.ones_like(lx), lx]).T
    (intercept, slope), res, *_ = np.linalg.lstsq(a, ly, rcond=None)
    total = float(((ly - ly.mean()) ** 2).sum())
    residual = float(res[0]) if len(res) else float(((a @ [intercept, slope] - ly) ** 2).sum())
    r2 = 1.0 if total == 0.0 else 1.0 - residual / total
    return PowerLawFit(float(slope), float(np.exp(intercept)), r2)


def table1_fits(rows, column: str = "priced_s"):
    """Table 1's exponents in n = N^2, over levels >= 4 (every level when
    fewer than two qualify)."""
    summary = cells(rows)
    levels = sorted({c["level"] for c in summary})
    fit_levels = [k for k in levels if k >= 4]
    if len(fit_levels) < 2:
        fit_levels = levels
    ns = [float(size_of_level(k) ** 2) for k in fit_levels]
    fits = {}
    for name in ("Direct", "SOR", "Multigrid"):
        by_level = {c["level"]: c[column] for c in summary if c["algorithm"] == name}
        fits[name] = fit_power_law(ns, [by_level[k] for k in fit_levels])
    return fits


# -- cycle renders (figs 4, 5, 14) --------------------------------------------

_LEGEND = (
    "legend: * = SOR(1.15) relaxation, \\ = restrict, / = interpolate,\n"
    "        ==> = direct solve, -N-> = N sweeps of SOR(w_opt)"
)


def render_cycle(trace) -> str:
    """ASCII cycle of a plan trace in the paper's fig 5 notation.

    Rows are levels (finest on top), columns advance with time: ``*``
    relaxation, ``\\`` restriction, ``/`` interpolation, ``==>`` direct
    solve, ``-N->`` N iterated SOR sweeps.  The step after a multi-char
    glyph starts that glyph's extra width further right, the spacing every
    fig 5 and 14 render has had.
    """
    steps, width, emitted = [], 0, 0
    for ev in trace:
        if ev.kind in ("relax", "direct", "sor"):
            glyph = {"relax": "*", "direct": "==>"}.get(ev.kind, f"-{max(ev.detail, 1)}->")
            at = lowest = ev.level
        elif ev.kind == "descend":
            glyph, at, lowest = "\\", ev.level, ev.level - 1
        elif ev.kind == "ascend":
            glyph, at, lowest = "/", ev.level - 1, ev.level - 1
        else:
            continue
        pad = max(0, width - emitted)
        steps.append((" " * pad, glyph, at, lowest))
        emitted += pad + 1
        width += len(glyph)
    top = trace[0].level
    lines = []
    for level in range(top, min((s[3] for s in steps), default=top) - 1, -1):
        row = "".join(pad + (g if at == level else " " * len(g)) for pad, g, at, _ in steps)
        lines.append(f"level {level:>2} (N={size_of_level(level):>5}) |" + row.rstrip())
    return "\n".join(lines) + "\n\n" + _LEGEND


def render_call_stack(plan, level: int, acc_index: int, indent: int = 0) -> str:
    """Fig 4's call stack: the tuned variant and iterations of each call."""
    pad = "  " * indent
    choice = plan.choice(level, acc_index)
    name = "FULL-MG" if isinstance(plan, TunedFullMGPlan) else "MULTIGRID-V"
    header = f"{pad}{name}{acc_index + 1} @ level {level} (N={size_of_level(level)}): "
    if isinstance(choice, DirectChoice):
        return header + "direct solve"
    if isinstance(choice, SORChoice):
        return header + f"SOR(w_opt) x {choice.iterations}"
    if isinstance(choice, RecurseChoice):
        return (
            f"{header}RECURSE x {choice.iterations} -> coarse accuracy "
            f"p{choice.sub_accuracy + 1}\n"
            + render_call_stack(plan, level - 1, choice.sub_accuracy, indent + 1)
        )
    if isinstance(choice, EstimateChoice):
        solver = choice.solver
        if isinstance(solver, SORChoice):
            tail = f"{pad}  then SOR(w_opt) x {solver.iterations}"
        else:
            tail = (
                f"{pad}  then RECURSE x {solver.iterations} -> coarse accuracy "
                f"p{solver.sub_accuracy + 1}\n"
                + render_call_stack(plan.vplan, level - 1, solver.sub_accuracy, indent + 2)
            )
        child = render_call_stack(plan, level - 1, choice.estimate_accuracy, indent + 1)
        return f"{header}ESTIMATE(p{choice.estimate_accuracy + 1})\n{child}\n{tail}"
    raise TypeError(f"unknown choice {choice!r}")


def _cycle(plan, level: int, acc_index: int) -> dict:
    """A fig 5/14 cycle: its render plus the counts the paper reads off it."""
    trace = plan.trace(level, acc_index)
    directs = [ev.level for ev in trace if ev.kind == "direct"]
    return {
        "text": render_cycle(trace),
        "relaxations": sum(ev.kind == "relax" for ev in trace),
        "direct_level": min(directs, default=None),
        "sor_segments": sum(ev.kind == "sor" for ev in trace),
    }


def fig4(max_level: int = 7) -> dict[str, str]:
    """Call stacks of MULTIGRID-V4 (Intel) for unbiased and biased training."""
    where = f"machine={get_preset('intel').name}, N={size_of_level(max_level)}"
    return {
        f"{dist} ({where})": render_call_stack(_tuned_v(max_level, dist), max_level, 3)
        for dist in ("unbiased", "biased")
    }


def fig5(
    max_level: int = 6, targets: Sequence[float] = (1e1, 1e3, 1e5, 1e7)
) -> dict[str, dict]:
    """Tuned V and full-MG cycles (AMD) for both distributions."""
    amd = get_preset("amd")
    out = {}
    for dist in ("unbiased", "biased"):
        for kind, plan in zip(("V", "full-MG"), _pair(max_level, "amd", dist)):
            for t in targets:
                key = f"{kind} cycle, {dist}, accuracy {t:g} ({amd.name})"
                out[key] = _cycle(plan, max_level, plan.accuracy_index(t))
    return out


def fig14(
    max_level: int = 6, machines: Sequence[str] = ("intel", "amd", "sun")
) -> dict[str, dict]:
    """Tuned full-MG cycles at accuracy 1e5 (unbiased) across testbed profiles."""
    target = 1e5
    out = {}
    for machine in machines:
        fplan = _pair(max_level, machine, "unbiased")[1]
        key = f"full-MG cycle, {get_preset(machine).name}, accuracy {target:g}"
        out[key] = _cycle(fplan, max_level, fplan.accuracy_index(target))
    return out


def sections(renders: dict) -> str:
    """Renders (texts, or cycles with a ``text``) under ``--- name ---`` headers."""
    texts = {name: r["text"] if isinstance(r, dict) else r for name, r in renders.items()}
    return "\n\n".join(f"--- {name} ---\n{text}" for name, text in texts.items())


# -- ablations (priced) -------------------------------------------------------


def ablation_ladder(max_level: int = 6) -> str:
    """Tuned time at 1e9 (Intel) with accuracy ladders from {1e9} alone up
    to the paper's five."""
    profile, target = get_preset("intel"), 1e9
    ladders = {
        "m=1 {1e9}": (1e9,),
        "m=2 {1e3,1e9}": (1e3, 1e9),
        "m=3 {1e1,1e5,1e9}": (1e1, 1e5, 1e9),
        "m=5 paper ladder": DEFAULT_ACCURACIES,
    }
    rows, base = [], None
    for name, ladder in ladders.items():
        plan = _tuned_v(max_level, "unbiased", 2, ladder)
        t = plan.time_on(profile, max_level, plan.accuracy_index(target))
        base = base or t
        rows.append((name, f"{t:.3e}", f"{base / t:.2f}x"))
    table = format_table(["ladder", "tuned time (s)", "speedup vs m=1"], rows)
    where = f"target {target:g}, N={size_of_level(max_level)}, {profile.name}"
    return f"Accuracy-ladder ablation ({where})\n{table}"


def ablation_distribution(max_level: int = 6, draws: int = 2) -> str:
    """Train on each distribution, evaluate on each (2x2), at 1e5 (Intel)."""
    profile, target = get_preset("intel"), 1e5
    executor, cache = PlanExecutor(), ReferenceSolutionCache()
    rows = []
    for train in ("unbiased", "biased"):
        plan = _tuned_v(max_level, train, draws)
        idx = plan.accuracy_index(target)
        for test in ("unbiased", "biased"):
            problems = _draws(test, max_level, draws)
            total, achieved = 0.0, []
            for problem in problems:
                x, meter = problem.initial_guess(), OpMeter()
                judge = AccuracyJudge(x, cache.get(problem))
                executor.run_v(plan, x, problem.b, idx, meter)
                total += profile.price(meter)
                achieved.append(judge.accuracy_of(x))
            rows.append((train, test, f"{total / len(problems):.3e}", f"{min(achieved):.2e}"))
    headers = ["trained on", "tested on", "time (s)", "worst achieved accuracy"]
    title = f"Training-distribution ablation (target {target:g}, {profile.name})"
    return f"{title}\n{format_table(headers, rows)}"


def ablation_smoother(level: int = 6, target: float = 1e3) -> str:
    """Red-black SOR against weighted Jacobi: sweeps to a fixed accuracy."""
    n = size_of_level(level)
    problem = training_set("unbiased", n, 1, SEED)[0]
    x_opt = ReferenceSolutionCache().get(problem)
    rows = []
    for name, weight, sweep in (
        ("SOR(w_opt)", omega_opt(n), sor_redblack),
        ("SOR(1.15)", 1.15, sor_redblack),
        ("Jacobi(2/3)", 2.0 / 3.0, jacobi_sweeps),
    ):
        x = problem.initial_guess()
        judge = AccuracyJudge(x, x_opt)
        sweeps = 0
        while judge.accuracy_of(x) < target and sweeps < 20000:
            sweep(x, problem.b, weight, 1)
            sweeps += 1
        rows.append((name, sweeps, f"{judge.accuracy_of(x):.2e}"))
    table = format_table(["smoother", "sweeps", "achieved"], rows)
    return f"Smoother ablation: sweeps to accuracy {target:g} at N={n}\n{table}"


def ablation_caching(max_level: int = 6) -> str:
    """The tuned plan's direct calls at 1e9 (Intel) priced as
    factor-every-call and as cached."""
    profile, target = get_preset("intel"), 1e9
    plan = _tuned_v(max_level, "unbiased", 2)
    meter = plan.unit_meter(max_level, plan.accuracy_index(target))
    cached = OpMeter()
    for (op, n), count in meter.items():
        cached.charge("direct_solve" if op == "direct" else op, n, count)
    rows = [
        ("factor every call (DPBSV)", f"{profile.price(meter):.3e}"),
        ("cached factorization (same plan)", f"{profile.price(cached):.3e}"),
    ]
    table = format_table(["direct-solve pricing", "tuned time (s)"], rows)
    where = f"target {target:g}, N={size_of_level(max_level)}, {profile.name}"
    return f"Factorization-caching ablation ({where})\n{table}"


def ablation_pareto(max_level: int = 4) -> str:
    """Full Pareto DP (section 2.2) against the discrete ladder (section 2.3),
    priced on the Intel profile."""
    profile = get_preset("intel")
    spec = TuneSpec(TuneKey(max_level=max_level, seed=SEED, instances=2), pricing=profile)
    plan = spec.build().tune()
    front = ParetoTuner(
        max_level=max_level, training=spec.training(), timing=spec.timing(), max_set_size=16
    ).tune()[max_level]
    rows = []
    for i, acc in enumerate(plan.accuracies):
        discrete = plan.time_on(profile, max_level, i)
        pareto = min((p.seconds for p in front if p.accuracy >= acc), default=None)
        rows.append(
            (
                f"{acc:g}",
                f"{discrete:.3e}",
                "-" if pareto is None else f"{pareto:.3e}",
                "-" if pareto is None else f"{discrete / pareto:.2f}",
            )
        )
    headers = ["accuracy", "discrete time (s)", "pareto time (s)", "discrete/pareto"]
    title = (
        f"Discrete vs Pareto DP at N={size_of_level(max_level)} ({profile.name}; "
        f"front size {len(front)})"
    )
    return f"{title}\n{format_table(headers, rows)}"


# -- the run ------------------------------------------------------------------


def run(smoke: bool) -> dict:
    """Every figure's cells, renders and ablations at full or smoke size."""
    top, mid, draws, reps = (4, 4, 1, 2) if smoke else (7, 6, 2, 5)
    rows = table1(top, reps) + fig6(top, draws, reps) + fig7(top, reps)
    for machine in ("intel", "amd", "sun"):
        for distribution in ("unbiased", "biased"):
            for target in (1e5, 1e9):
                rows += fig10_13(mid, machine, distribution, target, draws, reps)
    rows += cross_arch(mid, reps, draws=draws)
    return {
        "smoke": smoke,
        "key_fields": list(KEY_FIELDS),
        "result_fields": list(RESULT_FIELDS),
        "rows": rows,
        "fig4": fig4(top),
        "fig5": fig5(mid),
        "fig14": fig14(top),
        "ablations": {
            "ladder": ablation_ladder(mid),
            "distribution": ablation_distribution(mid, draws=draws),
            "smoother": ablation_smoother(mid),
            "caching": ablation_caching(mid),
            "pareto": ablation_pareto(4),
        },
    }


def check(report: dict) -> list[str]:
    """The paper's priced-shape claims on a full run; returns the failures."""
    failures: list[str] = []

    def claim(ok: bool, what: str) -> None:
        if not ok:
            failures.append(what)

    rows = report["rows"]
    fits = table1_fits(select(rows, figure="table1"))
    for name, exponent, tol in (
        ("Direct", 2.0, 0.2),
        ("SOR", 1.5, 0.2),
        ("Multigrid", 1.0, 0.15),
    ):
        claim(abs(fits[name].exponent - exponent) <= tol, f"table1 {name} exponent")
        claim(fits[name].r_squared > 0.98, f"table1 {name} fit quality")

    f6 = priced_series(select(rows, figure="fig6"))
    claim(abs(f6["Autotuned"][0] - f6["Direct"][0]) <= 0.01 * f6["Direct"][0], "fig6 small N")
    claim(all(f6["Autotuned"][-1] < f6[n][-1] for n in ("Direct", "SOR")), "fig6 large N")
    growth = {n: f6[n][-1] / f6[n][2] for n in ("Multigrid", "SOR", "Direct")}
    claim(growth["Multigrid"] < growth["SOR"] < growth["Direct"], "fig6 scaling")
    for c in cells(select(rows, figure="fig6")):
        exact = c["accuracy"] is None
        claim(exact or c["accuracy"] >= 0.5e9, f"fig6 {c['algorithm']} L{c['level']} accuracy")

    for family in FAMILIES:
        f7 = priced_series(select(rows, figure="fig7", family=family))
        auto = f7.pop("Autotuned")
        for name, values in f7.items():
            claim(all(a <= v * 1.0001 for a, v in zip(auto, values)), f"fig7 {family} {name}")
    f7 = priced_series(select(rows, figure="fig7", family="poisson"))
    auto, worst = f7.pop("Autotuned"), f7["Strategy 10^9"]
    claim(worst[-1] / auto[-1] >= worst[0] / auto[0], "fig8 gap grows with N")
    claim(worst[-1] / auto[-1] > 1.5, "fig8 gap at the top N")
    last = [values[-1] for values in f7.values()]
    claim(all(a >= b * 0.999 for a, b in zip(last, last[1:])), "fig8 strategy ordering")

    for c in cells(select(rows, figure="fig10-13", algorithm="Reference V", level=2)):
        machine, distribution, target = c["machine"], c["distribution"], c["target"]
        panel = select(
            rows, figure="fig10-13", machine=machine, distribution=distribution, target=target
        )
        s = priced_series(panel)
        what = f"fig10-13 {machine} {distribution} {target:g}"
        best = [min(a, b) for a, b in zip(s["Autotuned V"], s["Autotuned Full MG"])]
        if target == 1e5:
            claim(best[-1] <= s["Reference Full MG"][-1] * 1.05, f"{what} top N")
            claim(all(a <= r * 1.25 for a, r in zip(best, s["Reference V"])), what)
            claim(s["Autotuned V"][0] / s["Reference V"][0] < 0.9, f"{what} shortcut")
        else:
            ref = [min(a, b) for a, b in zip(s["Reference V"], s["Reference Full MG"])]
            claim(all(a <= r * 1.45 for a, r in zip(best, ref)), what)
        if (distribution, target) == ("unbiased", 1e9):
            claim(s["Autotuned V"][0] < s["Reference V"][0], f"{what} small N")
        if (distribution, target) == ("unbiased", 1e5):
            claim(speedup_at_top(panel)["Autotuned Full MG"] >= 0.95, f"{what} speedup")

    penalties = [pct for *_, pct in cross_penalties(select(rows, figure="cross-arch"))]
    claim(len(penalties) == 2 and min(penalties) >= -0.5, "cross-arch native is optimal")
    claim(max(penalties) > 1.0, "cross-arch penalty exists")

    for name, text in report["fig4"].items():
        claim("MULTIGRID-V4" in text and "RECURSE" in text, f"fig4 {name} recurses")
    f5 = report["fig5"]
    for dist in ("unbiased", "biased"):
        for kind in ("V", "full-MG"):
            name = f"{kind} cycle, {dist}, accuracy {{}} (amd-barcelona)"
            lo, hi = (f5[name.format(t)] for t in ("10", "1e+07"))
            claim(hi["relaxations"] >= lo["relaxations"], f"fig5 {kind} {dist} work grows")
    shortcuts = [(c["direct_level"] or 1) > 1 or c["sor_segments"] for c in f5.values()]
    claim(any(shortcuts), "fig5 shortcuts")
    f14 = report["fig14"]
    claim(len({c["text"] for c in f14.values()}) >= 2, "fig14 shapes differ")
    intel, sun = (next(c for k, c in f14.items() if m in k) for m in ("intel", "sun"))
    claim(
        (sun["direct_level"] or 0) <= (intel["direct_level"] or 0)
        or sun["sor_segments"] > intel["sor_segments"],
        "fig14 niagara avoids big direct solves",
    )
    sweeps = {
        line.split()[0]: int(line.split()[-2])
        for line in report["ablations"]["smoother"].splitlines()[3:]
    }
    claim(sweeps["SOR(w_opt)"] < sweeps["Jacobi(2/3)"], "smoother: SOR beats Jacobi")
    return failures


def format_rows(rows: Sequence[dict]) -> str:
    """Per-cell tables: priced and min measured seconds, ratios, accuracy."""
    groups: dict[tuple, list[dict]] = {}
    for c in cells(rows):
        groups.setdefault(tuple(c[f] for f in CELL_FIELDS[:-1]), []).append(c)
    out = []
    for (figure, machine, family, dist, level, target), members in groups.items():
        baseline = NATIVE + machine if figure == "cross-arch" else BASELINE.get(figure)
        base = next((c for c in members if c["algorithm"] == baseline), members[0])
        table = [
            (
                c["algorithm"],
                f"{c['priced_s']:.3e}",
                f"{c['measured_s']:.3e}",
                f"{c['priced_s'] / base['priced_s']:.2f}",
                f"{c['measured_s'] / base['measured_s']:.2f}",
                "exact" if c["accuracy"] is None else f"{c['accuracy']:.2e}",
            )
            for c in members
        ]
        headers = ["algorithm", "priced (s)", "measured (s)", "priced ratio"]
        headers += ["measured ratio", "accuracy"]
        title = f"{figure} {machine} {family} {dist} N={size_of_level(level)} target {target:g}"
        out.append(f"{title}\n{format_table(headers, table)}")
    return "\n\n".join(out)


def host() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernels": backend_provenance(),
    }


def revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="level-4 run in seconds")
    parser.add_argument(
        "--out",
        default=str(ROOT / "benchmarks" / "out"),
        help="directory for BENCH_paper.json (default: benchmarks/out)",
    )
    args = parser.parse_args(argv)
    started = time.time()
    report = run(args.smoke)
    failures = [] if args.smoke else check(report)
    report.update(
        revision=revision(), host=host(), wall_s=time.time() - started, check_failures=failures
    )
    rows = report["rows"]
    print(format_rows(rows))
    for column in ("priced_s", "measured_s"):
        fits = table1_fits(select(rows, figure="table1"), column)
        exponents = ", ".join(f"{name} {fit.exponent:.2f}" for name, fit in fits.items())
        print(f"\ntable1 exponents in n = N^2, {column} (paper 2.0, 1.5, 1.0): {exponents}")
    penalties = cross_penalties(select(rows, figure="cross-arch"))
    slowdowns = ", ".join(f"{t} on {r} {pct:+.1f}%" for t, r, pct in penalties)
    print(f"\ncross-architecture, priced: {slowdowns}")
    for figure in ("fig4", "fig5", "fig14"):
        print(f"\n=== {figure} ===\n{sections(report[figure])}")
    for text in report["ablations"].values():
        print(f"\n{text}")
    path = write_bench_report("paper", report, started, args.out)
    print(f"\nwrote {path}: {len(rows)} rows in {report['wall_s']:.1f} s")
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
