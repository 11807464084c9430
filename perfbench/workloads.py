"""The three workloads: solve-fine, serve-mixed and tune-cold.

Each workload function takes the parsed arguments, the process start
time, a scratch directory owned by the run and a :class:`Check`, and
returns ``(attempted, failed, metrics)``.  Untraced runs report the
end-to-end metrics; traced runs (``--trace 1``) run an untraced half
and a traced half of the same length and report the per-layer metrics
of the traced half, plus the tracing overhead between the two.

Per run, the order of work is fixed: set-up (imports, kernel cache,
tuning or warming, one untimed pass of a round), the timed closed loop,
then the benchmark-only work -- independent references, the heuristic
baseline -- so that it cannot warm the program's caches before timing.
"""

from __future__ import annotations

import dataclasses
import math
import os
import resource
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any

import numpy as np

from harness import (HostSpeed, OpTimes, Probes, RoundFeeder, closed_loop, geomean, metric,
                     pin_one_cpu, probing, quantile, self_times, unpin)
from oracle import Oracle, accuracy

#: fixed machine preset: ``host`` calibrates by timing, which changes plans
MACHINE = "intel"
TARGETS = (1e5, 1e9)
#: plans train on the program's default training set (seed 0, 3 instances)
TRAIN_SEED = 0
TRAIN_INSTANCES = 3
#: seeds of the fixed, seed-independent problem instances ("pinned")
PINNED_SEED = 7000
#: seeded held-out instances live far from the training and pinned seeds
HELD_OUT_BASE = 10_000_000
SPEEDUP_REPS = 5
#: span-sink capacity of a traced half
TRACE_CAPACITY = 1 << 18
#: how far the summed per-layer self times may stray from the traced
#: wall time on solve-fine (README, "Traced runs")
SELF_TIME_TOLERANCE = 0.05

SOLVE_FAMILIES = (("poisson", 7), ("anisotropic", 7), ("varcoeff", 7), ("poisson3d", 5))
SOLVE_PER_CLASS = 2
SERVE_LEVELS = (4, 5, 6)
SERVE_FAMILIES = ("poisson", "anisotropic", "varcoeff")
DISTRIBUTIONS = ("unbiased", "biased")
SERVE_PER_CLASS = 2
SERVE_CLIENTS = 2
TUNE_FAMILIES = (("poisson", 6), ("anisotropic", 6), ("varcoeff", 6), ("poisson3d", 4))
TUNE_CONFIGS = (("dp", 1), ("dp", 2), ("model", 1))
TUNE_PER_FAMILY = 2

#: (family, level, distribution, target) classes whose delivered-over-
#: requested accuracy fell below 1.9 on some of 40 held-out draws when
#: the benchmark was written (the open-loop fault, see README).  Their
#: instances are fixed, so whether they miss does not depend on --seed.
SOLVE_PINNED = frozenset({
    ("anisotropic", 7, "unbiased", 1e5),
    ("anisotropic", 7, "unbiased", 1e9),
    ("poisson3d", 5, "unbiased", 1e5),
    ("poisson3d", 5, "unbiased", 1e9),
})
SERVE_PINNED = frozenset({("varcoeff", 6, "biased", 1e9)})

KERNEL_OPS = ("relax", "residual", "restrict", "interpolate")
#: bytes one kernel call moves per fine-grid point, computed from the
#: arrays it reads and writes (8-byte doubles; transfers also touch the
#: coarse grid, 1/2^d of the points).  Stencil operators (anisotropic,
#: varcoeff) read five more coefficient arrays in relax and residual.
KERNEL_BYTES = {"relax": 24, "residual": 24, "restrict": 8, "interpolate": 16}
STENCIL_EXTRA_BYTES = 40


class Check:
    """Collects correctness violations; any violation fails the run."""

    def __init__(self) -> None:
        self.problems: list[str] = []

    def fail(self, message: str) -> None:
        self.problems.append(message)
        print(f"perfbench: CHECK FAILED: {message}", file=sys.stderr)

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass(frozen=True)
class Case:
    """One (problem, target) operation of a round."""

    ident: int
    family: str
    level: int
    distribution: str
    target: float
    instance_seed: int
    pinned: bool
    problem: Any


def held_out_seed(seed: int, k: int) -> int:
    return HELD_OUT_BASE + 64 * seed + k


def build_panel(classes, pinned, per_class: int, seed: int) -> list[Case]:
    from repro import core

    cases: list[Case] = []
    for family, level, dist in classes:
        for target in TARGETS:
            is_pinned = (family, level, dist, target) in pinned
            for k in range(per_class):
                s = PINNED_SEED + k if is_pinned else held_out_seed(seed, k)
                problem = core.poisson_problem(dist, n=2**level + 1, seed=s, operator=family)
                cases.append(Case(len(cases), family, level, dist, target, s, is_pinned, problem))
    return cases


def seeded_rounds(cases: list[Case], seed: int):
    """Round ``r`` is every case once, in an order drawn from (seed, r)."""

    def make_round(r: int) -> list[Case]:
        order = np.random.default_rng([seed, r + 1]).permutation(len(cases))
        return [cases[i] for i in order]

    return make_round


class Ledger:
    """Client latencies, op counts and the first solution of each case.

    Every later solution of a case must be byte-identical to the first
    (the solvers are deterministic), so only the first is kept and the
    accuracy of a case is judged once, after the timed phase.
    """

    def __init__(self, check: Check) -> None:
        self.check = check
        self.times = OpTimes()
        self.count: Counter[int] = Counter()
        self.first: dict[int, np.ndarray] = {}
        self._lock = threading.Lock()

    def record(self, case: Case, x: np.ndarray, seconds: float) -> None:
        self.times.add(seconds)
        with self._lock:
            self.count[case.ident] += 1
        prev = self.first.setdefault(case.ident, x)
        if prev is not x and not np.array_equal(prev, x):
            self.check.fail(f"case {case.ident} ({case.family}) gave different bytes on repeat")


class References:
    """Oracle solutions, one sparse assembly per (family, n)."""

    def __init__(self, check: Check) -> None:
        self.check = check
        self._oracles: dict[tuple[str, int], Oracle] = {}
        self._solutions: dict[tuple, np.ndarray] = {}

    def solution(self, family: str, distribution: str, seed: int, problem) -> np.ndarray:
        key = (family, problem.n, distribution, seed)
        x_star = self._solutions.get(key)
        if x_star is None:
            oracle = self._oracles.get((family, problem.n))
            if oracle is None:
                oracle = self._oracles[(family, problem.n)] = Oracle(family, problem.n)
            x_star = oracle.solve(problem.b, problem.initial_guess())
            if oracle.residual_ratio(x_star, problem.b) > 1e-10:
                self.check.fail(f"oracle residual too large for {key}")
            self._solutions[key] = x_star
        return x_star

    def delivered(self, case: Case, x: np.ndarray) -> float:
        """Delivered accuracy of ``x`` on ``case`` (0.0 for a malformed x)."""
        x0 = case.problem.initial_guess()
        if x.shape != x0.shape or not np.all(np.isfinite(x)):
            self.check.fail(f"case {case.ident} ({case.family}): malformed output")
            return 0.0
        x_star = self.solution(case.family, case.distribution, case.instance_seed, case.problem)
        return accuracy(x0, x, x_star)


def count_failures(cases: list[Case], ledger: Ledger, refs: References) -> int:
    """Operations whose delivered accuracy is below the requested target."""
    failed = 0
    for case in cases:
        x = ledger.first.get(case.ident)
        if x is None:
            continue
        if refs.delivered(case, x) < case.target:
            failed += ledger.count[case.ident]
            if not case.pinned:
                print(f"perfbench: seeded case missed its target: {case}", file=sys.stderr)
    return failed


def fill_kernel_cache() -> None:
    from repro.kernels import get_backend

    backend = get_backend("cnative")
    if backend.available():
        backend.warmup()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def top_cycles(plan, level: int, target: float) -> int:
    """RECURSE applications at the finest level for one solve (exact)."""
    from repro.tuner.choices import RecurseChoice

    choice = plan.choice(level, plan.accuracy_index(target))
    return choice.iterations if isinstance(choice, RecurseChoice) else 0


@dataclass
class Phase:
    """A timed closed-loop phase and the host speed probed during it."""

    seconds: float  # wall time, host probes excluded
    ops: int
    speed: HostSpeed

    def factor(self) -> float:
        return self.speed.factor()

    def throughput(self) -> float:
        """Operations per second, scaled to the reference host speed."""
        return self.ops / self.seconds * self.factor()


def setup_seconds(t_start: float, speed: HostSpeed) -> float:
    """Set-up time so far (probes excluded), scaled to the reference speed."""
    raw = time.perf_counter() - t_start - sum(speed.samples)
    return raw / speed.factor()


def end_to_end(phase: Phase, times: OpTimes, setup_s: float, rss_mb: float,
               speedup: float) -> dict[str, Any]:
    f = phase.factor()
    return {
        "throughput_per_s": metric(phase.throughput(), "1/s"),
        "latency_p50_ms": metric(times.quantile_ms(0.5) / f, "ms"),
        "latency_p90_ms": metric(times.quantile_ms(0.9) / f, "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "tuned_speedup": metric(speedup, "x"),
    }


# -- tuned vs heuristic -----------------------------------------------------


def heuristic_plan(family: str, level: int, distribution: str):
    """The Strategy 10^final heuristic on the plans' own training data."""
    from repro.machines.presets import get_preset
    from repro.tuner.heuristics import HeuristicStrategy, tune_heuristic
    from repro.tuner.plan import DEFAULT_ACCURACIES
    from repro.tuner.timing import CostModelTiming
    from repro.tuner.training import TrainingData

    final = len(DEFAULT_ACCURACIES) - 1
    return tune_heuristic(
        HeuristicStrategy(sub_index=final, final_index=final),
        max_level=level,
        accuracies=DEFAULT_ACCURACIES,
        training=TrainingData(distribution=distribution, instances=TRAIN_INSTANCES,
                              seed=TRAIN_SEED, operator=family),
        timing=CostModelTiming(get_preset(MACHINE)),
    )


def compare_with_heuristic(entries, check: Check) -> dict[str, Any]:
    """Wall-clock heuristic/tuned ratios on held-out problems.

    ``entries`` are ``(label, family, level, distribution, plan,
    problems)``.  Both plans run on the numpy kernels, interleaved (the
    order alternates per repetition), and each (plan, problem, target)
    keeps its fastest of ``SPEEDUP_REPS`` runs.  Every repeat must give
    the same bytes.  Also prices each first run with the machine
    profile the tuner optimized, for the priced-vs-measured ratio.
    """
    from repro import core
    from repro.machines.presets import get_preset

    profile = get_preset(MACHINE)
    heuristics: dict[tuple, Any] = {}
    ratios: dict[str, float] = {}
    priced_ratios: dict[str, float] = {}
    priced_total = measured_total = 0.0
    for label, family, level, dist, plan, problems in entries:
        key = (family, level, dist)
        if key not in heuristics:
            heuristics[key] = heuristic_plan(family, level, dist)
        plans = {"tuned": dataclasses.replace(plan, backends={}), "heuristic": heuristics[key]}
        best: dict[tuple, float] = {}
        priced: dict[tuple, float] = {}
        firsts: dict[tuple, np.ndarray] = {}
        for rep in range(SPEEDUP_REPS):
            names = ("tuned", "heuristic") if rep % 2 == 0 else ("heuristic", "tuned")
            for qi, problem in enumerate(problems):
                for target in TARGETS:
                    for name in names:
                        t0 = time.perf_counter()
                        x, meter = core.solve(plans[name], problem, target)
                        dt = time.perf_counter() - t0
                        k = (name, qi, target)
                        if k not in firsts:
                            if x.shape != problem.b.shape or not np.all(np.isfinite(x)):
                                check.fail(f"{label}: malformed {name} output")
                            firsts[k] = x
                            priced[k] = profile.price(meter)
                        elif not np.array_equal(firsts[k], x):
                            check.fail(f"{label}: repeated {name} solve gave different bytes")
                        best[k] = min(best.get(k, math.inf), dt)

        def total(table: dict[tuple, float], name: str) -> float:
            return sum(v for k, v in table.items() if k[0] == name)

        ratios[label] = total(best, "heuristic") / total(best, "tuned")
        priced_ratios[label] = total(priced, "heuristic") / total(priced, "tuned")
        priced_total += sum(priced.values())
        measured_total += sum(best.values())
    return {
        "ratios": ratios,
        "speedup": geomean(ratios.values()),
        "priced_speedup": geomean(priced_ratios.values()),
        "price_ratio": priced_total / measured_total,
    }


# -- per-layer metrics --------------------------------------------------------

#: every per-layer metric with its unit; traced runs report all of them
#: (0 where the workload does not exercise the layer)
PER_LAYER_UNITS = {
    "kernels.relax_s": "s",
    "kernels.residual_s": "s",
    "kernels.restrict_s": "s",
    "kernels.interpolate_s": "s",
    "kernels.calls": "count",
    "kernels.points": "count",
    "kernels.gbytes_computed": "GB",
    "kernels.gbps_computed": "GB/s",
    "linalg.direct_s": "s",
    "linalg.direct_calls": "count",
    "tuner.executor.self_s": "s",
    "tuner.executor.fine_level_s": "s",
    "tuner.executor.coarse_levels_s": "s",
    "tuner.executor.cycles_per_solve": "count",
    "tuner.dp.candidates": "count",
    "tuner.dp.evaluated": "count",
    "tuner.dp.feasible_ratio": "ratio",
    "tuner.dp.train_s": "s",
    "tuner.speedup.poisson": "x",
    "tuner.speedup.anisotropic": "x",
    "tuner.speedup.varcoeff": "x",
    "tuner.speedup.poisson3d": "x",
    "modeltuner.fit_s": "s",
    "modeltuner.trials_used": "count",
    "modeltuner.budget_fraction": "ratio",
    "accuracy.reference_s": "s",
    "accuracy.reference_calls": "count",
    "parallel.pool_start_s": "s",
    "parallel.map_s": "s",
    "parallel.tasks": "count",
    "parallel.child_peak_rss_mb": "MB",
    "store.write_s": "s",
    "store.rows_written": "count",
    "store.lookup_s": "s",
    "store.lookups": "count",
    "serve.queue_wait_ms_p50": "ms",
    "serve.batch_size_mean": "count",
    "serve.cache.decision_us_p50": "us",
    "serve.cache.hit_ratio": "ratio",
    "serve.cache.decisions": "count",
    "serve.solve_ms_p50": "ms",
    "serve.overhead_ms_p50": "ms",
    "serve.rejected": "count",
    "machines.price_ratio": "ratio",
    "machines.priced_speedup": "x",
    "obs.overhead_pct": "%",
    "obs.spans": "count",
    "obs.self_coverage_pct": "%",
    "obs.host_speed_factor": "ratio",
}


class Layers:
    """Per-layer values of one traced half, keyed by metric name."""

    def __init__(self) -> None:
        self.values = {name: 0.0 for name in PER_LAYER_UNITS}

    def set(self, name: str, value: float) -> None:
        if name not in self.values:
            raise KeyError(f"unknown per-layer metric {name!r}")
        self.values[name] = float(value)

    def metrics(self) -> dict[str, Any]:
        return {name: metric(v, PER_LAYER_UNITS[name]) for name, v in self.values.items()}

    def kernels_from(self, profile_rows, solves: int, points: float, gbytes: float) -> None:
        """Kernel and direct-solve busy time per solve from ``SolveProfiler``
        rows, and the computed traffic of the same kernels."""
        busy = 0.0
        for op in KERNEL_OPS:
            seconds = sum(r["total_s"] for r in profile_rows if r["op"] == op)
            busy += seconds
            self.set(f"kernels.{op}_s", seconds / solves)
        direct = [r for r in profile_rows if r["op"] == "direct"]
        self.set("linalg.direct_s", sum(r["total_s"] for r in direct) / solves)
        self.set("linalg.direct_calls", sum(r["count"] for r in direct) / solves)
        self.set("kernels.points", points / solves)
        self.set("kernels.gbytes_computed", gbytes / solves)
        if busy > 0:
            self.set("kernels.gbps_computed", gbytes / busy)

    def speedups_from(self, comparison: dict[str, Any]) -> None:
        for label, ratio in comparison["ratios"].items():
            family, _, tuner = label.partition(":")
            if tuner in ("", "dp"):
                self.set(f"tuner.speedup.{family}", ratio)
        self.set("machines.price_ratio", comparison["price_ratio"])
        self.set("machines.priced_speedup", comparison["priced_speedup"])


def stencil_family(family: str) -> bool:
    return family in ("anisotropic", "varcoeff")


def kernel_work(op: str, n: int, ndim: int, count: int, family: str) -> tuple[float, float]:
    """(calls, points, gigabytes) moved by ``count`` calls of ``op`` at ``n``."""
    points = float(count) * n**ndim
    per_point = KERNEL_BYTES[op]
    if op in ("restrict", "interpolate"):
        per_point += 8 / 2**ndim
    elif stencil_family(family):
        per_point += STENCIL_EXTRA_BYTES
    return points, points * per_point / 1e9


def meter_work(meter, ndim: int, family: str) -> tuple[int, float, float]:
    """Kernel calls, points and computed gigabytes in an ``OpMeter``."""
    from repro.machines.meter import base_op

    calls = 0
    points = gbytes = 0.0
    for (op, n), count in meter.items():
        name = base_op(op)
        name = name[:-2] if name.endswith("3d") else name
        if name in KERNEL_OPS:
            calls += count
            p, g = kernel_work(name, n, ndim, count, family)
            points += p
            gbytes += g
    return calls, points, gbytes


def executor_levels(spans, root_names: set[str]) -> tuple[float, float, float]:
    """(executor self, finest-level, coarser-levels) seconds from spans.

    The finest level is an ``mg.level`` span whose parent is a root
    request span; its own time (its kernels included) is the fine-level
    time, and its ``mg.level`` children make up the coarser levels.
    """
    by_id = {s.span_id: s for s in spans}
    child_levels: dict[str, float] = {}
    for s in spans:
        if s.name == "mg.level" and s.parent_id is not None:
            child_levels[s.parent_id] = child_levels.get(s.parent_id, 0.0) + s.duration_s
    fine = coarse = 0.0
    for s in spans:
        if s.name != "mg.level":
            continue
        parent = by_id.get(s.parent_id)
        if parent is not None and parent.name in root_names:
            below = child_levels.get(s.span_id, 0.0)
            fine += s.duration_s - below
            coarse += below
    return self_times(spans).get("mg.level", 0.0), fine, coarse


# -- solve-fine ---------------------------------------------------------------


def solve_fine(args, t_start: float, workdir: str, check: Check):
    from repro import core

    pin_one_cpu()  # a single-threaded workload, kept on one vCPU
    setup_speed = HostSpeed()
    fill_kernel_cache()
    plans = {}
    for family, level in SOLVE_FAMILIES:
        setup_speed.probe()
        plans[family] = core.autotune(max_level=level, machine=MACHINE, operator=family,
                                      backend="auto", seed=TRAIN_SEED, instances=TRAIN_INSTANCES)
    cases = build_panel([(f, lvl, "unbiased") for f, lvl in SOLVE_FAMILIES],
                        SOLVE_PINNED, SOLVE_PER_CLASS, args.seed)
    make_round = seeded_rounds(cases, args.seed)
    ledger = Ledger(check)

    def call(case: Case):
        return core.solve(plans[case.family], case.problem, case.target)

    def after(item, out, seconds: float) -> None:
        ledger.record(item[1], out[0], seconds)

    for case in make_round(-1):  # untimed warm-up pass
        call(case)
    setup_speed.probe()
    seconds = args.seconds / 2 if args.trace else args.seconds
    setup_s = setup_seconds(t_start, setup_speed)
    speed = HostSpeed()
    elapsed, ops = closed_loop(RoundFeeder(probing(make_round, speed), seconds), call, after)
    phase = Phase(elapsed - sum(speed.samples), ops, speed)
    rss = peak_rss_mb()
    info = {"speed_setup": setup_speed.factor(), "speed_run": speed.factor()}
    if args.trace:
        layers = Layers()
        traced = _trace_solve_fine(plans, make_round, ledger, seconds, layers, check)
        layers.set("obs.overhead_pct", (phase.throughput() / traced.throughput() - 1.0) * 100.0)
        layers.set("obs.host_speed_factor", traced.speed.factor())
        info["speed_run"] = traced.speed.factor()
    attempted = sum(ledger.count.values())
    refs = References(check)
    failed = count_failures(cases, ledger, refs)
    entries = []
    for family, level in SOLVE_FAMILIES:
        problems = [c.problem for c in cases if c.family == family and c.target == TARGETS[0]]
        entries.append((family, family, level, "unbiased", plans[family], problems))
    comparison = compare_with_heuristic(entries, check)
    if args.trace:
        layers.speedups_from(comparison)
        return attempted, failed, layers.metrics(), info
    return attempted, failed, end_to_end(
        phase, ledger.times, setup_s, rss, comparison["speedup"]), info


def _trace_solve_fine(plans, make_round, ledger: Ledger, seconds: float,
                      layers: Layers, check: Check) -> Phase:
    """Traced half of solve-fine (observer harvests excluded from its
    time).

    Mirrors ``core.solve`` (one executor per call) with the program's
    tracer and profiler attached, under a root span per call.
    """
    from repro.machines.meter import OpMeter
    from repro.obs.profile import SolveProfiler
    from repro.obs.trace import Tracer
    from repro.tuner.executor import PlanExecutor

    tracer = Tracer(capacity=TRACE_CAPACITY)
    profiler = SolveProfiler()
    spans: list = []
    harvest_s = [0.0]
    totals = {"calls": 0, "points": 0.0, "gbytes": 0.0, "cycles": 0, "solves": 0}

    def harvest() -> None:
        t0 = time.perf_counter()
        spans.extend(tracer.sink.spans())
        tracer.sink.clear()
        harvest_s[0] += time.perf_counter() - t0

    def call(case: Case):
        problem = case.problem
        plan = plans[case.family]
        root = tracer.start("bench.solve", family=case.family)
        with tracer.activate(root):
            executor = PlanExecutor(operator=problem.operator, tracer=tracer,
                                    profiler=profiler, op_span_min_points=0)
            x = problem.initial_guess()
            meter = OpMeter()
            executor.run_v(plan, x, problem.b, plan.accuracy_index(case.target), meter)
        tracer.finish(root)
        return x, meter

    def after(item, out, seconds: float) -> None:
        case = item[1]
        x, meter = out
        ledger.record(case, x, seconds)
        calls, points, gbytes = meter_work(meter, case.problem.ndim, case.family)
        totals["calls"] += calls
        totals["points"] += points
        totals["gbytes"] += gbytes
        totals["cycles"] += top_cycles(plans[case.family], case.level, case.target)
        totals["solves"] += 1
        if len(tracer.sink) > TRACE_CAPACITY // 2:
            harvest()

    speed = HostSpeed()
    elapsed, ops = closed_loop(RoundFeeder(probing(make_round, speed), seconds), call, after)
    harvest()
    wall = elapsed - harvest_s[0] - sum(speed.samples)
    solves = totals["solves"]
    layers.kernels_from(profiler.rows(), solves, totals["points"], totals["gbytes"])
    layers.set("kernels.calls", totals["calls"] / solves)
    layers.set("tuner.executor.cycles_per_solve", totals["cycles"] / solves)
    own = self_times(spans)
    executor_self, fine, coarse = executor_levels(spans, {"bench.solve"})
    layers.set("tuner.executor.self_s", executor_self / solves)
    layers.set("tuner.executor.fine_level_s", fine / solves)
    layers.set("tuner.executor.coarse_levels_s", coarse / solves)
    layers.set("obs.spans", len(spans) / solves)
    coverage = sum(own.values()) / wall
    layers.set("obs.self_coverage_pct", coverage * 100.0)
    if abs(coverage - 1.0) > SELF_TIME_TOLERANCE:
        check.fail(f"solve-fine self times cover {coverage:.1%} of traced wall time "
                   f"(tolerance {SELF_TIME_TOLERANCE:.0%})")
    return Phase(wall, ops, speed)


# -- serve-mixed --------------------------------------------------------------


def serve_mixed(args, t_start: float, workdir: str, check: Check):
    from repro.serve.server import SolveServer
    from repro.store.registry import PlanRegistry

    pin_one_cpu()  # clients and server workers, created below, inherit it
    setup_speed = HostSpeed()
    fill_kernel_cache()
    setup_speed.probe()
    registry = PlanRegistry(os.path.join(workdir, "serve.sqlite"))
    classes = [(f, lvl, d) for lvl in SERVE_LEVELS for f in SERVE_FAMILIES for d in DISTRIBUTIONS]
    cases = build_panel(classes, SERVE_PINNED, SERVE_PER_CLASS, args.seed)
    make_round = seeded_rounds(cases, args.seed)
    ledger = Ledger(check)

    def open_server(**observe: Any):
        server = SolveServer(machine=MACHINE, store=registry, **observe)
        entries = server.warm_many([(d, lvl, f) for f, lvl, d in classes])
        return server, {cls: entry.plan for cls, entry in zip(classes, entries)}

    def run_phase(server, seconds: float, record: bool):
        def call(case: Case):
            return server.submit(case.problem, case.target,
                                 distribution=case.distribution).result(timeout=60)

        def after(item, result, seconds: float) -> None:
            case = item[1]
            if result.stale or result.plan_source == "fallback":
                check.fail(f"warmed server served a fallback plan for {case.family}")
            if record:
                ledger.record(case, result.solution, seconds)
            results.append((case, result.trace_id, seconds))

        results: list[tuple[Case, str | None, float]] = []
        speed = HostSpeed()
        elapsed, ops = closed_loop(RoundFeeder(probing(make_round, speed), seconds), call,
                                   after, clients=SERVE_CLIENTS)
        return Phase(elapsed - sum(speed.samples), ops, speed), results

    def close(server) -> None:
        if not server.wait_for_swaps(timeout=60):
            check.fail("background tunes still running after 60 s")
        server.shutdown(drain=True, timeout=60)

    server, plans = open_server()
    setup_speed.probe()
    run_phase(server, 0.0, record=False)  # untimed warm-up round
    setup_speed.probe()
    seconds = args.seconds / 2 if args.trace else args.seconds
    setup_s = setup_seconds(t_start, setup_speed)
    phase, _ = run_phase(server, seconds, record=True)
    rss = peak_rss_mb()
    close(server)
    info = {"speed_setup": setup_speed.factor(), "speed_run": phase.factor()}
    if args.trace:
        layers = Layers()
        traced = _trace_serve(open_server, run_phase, close, plans, seconds, layers, check)
        layers.set("obs.overhead_pct", (phase.throughput() / traced.throughput() - 1.0) * 100.0)
        layers.set("obs.host_speed_factor", traced.factor())
        info["speed_run"] = traced.factor()
    registry.db.close()
    attempted = sum(ledger.count.values())
    failed = count_failures(cases, ledger, References(check))
    top = max(SERVE_LEVELS)
    entries = [
        (f, f, top, "unbiased", plans[(f, top, "unbiased")],
         [c.problem for c in cases if c.family == f and c.level == top
          and c.distribution == "unbiased" and c.target == TARGETS[0]])
        for f in SERVE_FAMILIES
    ]
    comparison = compare_with_heuristic(entries, check)
    if args.trace:
        layers.speedups_from(comparison)
        return attempted, failed, layers.metrics(), info
    return attempted, failed, end_to_end(
        phase, ledger.times, setup_s, rss, comparison["speedup"]), info


def _trace_serve(open_server, run_phase, close, plans, seconds: float,
                 layers: Layers, check: Check) -> Phase:
    """Traced half of serve-mixed, on a fresh server over the same warm
    store."""
    from repro.obs.profile import SolveProfiler
    from repro.obs.trace import Tracer
    from repro.serve.cache import PlanCache

    tracer = Tracer(capacity=TRACE_CAPACITY)
    profiler = SolveProfiler()
    server, _ = open_server(tracer=tracer, profiler=profiler, op_span_min_points=0)
    tracer.sink.clear()
    # The program's plan_cache.decision span is a zero-duration event,
    # so the lookup is timed here, around the server's call into it.
    probes = Probes()
    probes.wrap(PlanCache, "get_or_fallback", "serve.cache.decision")
    try:
        phase, results = run_phase(server, seconds, record=True)
    finally:
        probes.restore()
    ops = phase.ops
    stats = server.stats()
    close(server)
    if tracer.sink.emitted > TRACE_CAPACITY:
        check.fail(f"span sink overflowed ({tracer.sink.emitted} spans)")
    spans = tracer.sink.spans()
    solve_s = {s.trace_id: s.duration_s for s in spans if s.name == "serve.solve"}
    operator = {s.trace_id: s.attrs.get("operator", "") for s in spans
                if s.name == "serve.request"}
    overhead = [client - solve_s[tid] for _, tid, client in results if tid in solve_s]
    points = gbytes = 0.0
    calls = 0
    for s in spans:
        op = s.name[3:] if s.name.startswith("op.") else None
        if op not in KERNEL_OPS:
            continue
        count = s.attrs.get("iterations", 1)
        family = operator.get(s.trace_id, "").split("(")[0]
        p, g = kernel_work(op, 2 ** s.attrs["level"] + 1, 2, count, family)
        calls += count
        points += p
        gbytes += g
    layers.kernels_from(profiler.rows(), ops, points, gbytes)
    layers.set("kernels.calls", calls / ops)
    layers.set("tuner.executor.cycles_per_solve", sum(
        top_cycles(plans[(c.family, c.level, c.distribution)], c.level, c.target)
        for c, _, _ in results) / ops)
    executor_self, fine, coarse = executor_levels(spans, {"serve.solve"})
    layers.set("tuner.executor.self_s", executor_self / ops)
    layers.set("tuner.executor.fine_level_s", fine / ops)
    layers.set("tuner.executor.coarse_levels_s", coarse / ops)
    counters = stats["counters"]
    hits = counters.get("cache_hits", 0)
    lookups = hits + counters.get("cache_misses", 0)
    layers.set("serve.queue_wait_ms_p50", stats["latency"]["queue_wait"]["p50_s"] * 1e3)
    layers.set("serve.batch_size_mean", counters.get("requests_completed", 0)
               / max(1, counters.get("batches", 0)))
    layers.set("serve.cache.decision_us_p50",
               quantile(probes.durations["serve.cache.decision"], 0.5) * 1e6)
    layers.set("serve.cache.decisions", lookups)
    layers.set("serve.cache.hit_ratio", hits / lookups if lookups else 0.0)
    layers.set("serve.solve_ms_p50", quantile(list(solve_s.values()), 0.5) * 1e3)
    layers.set("serve.overhead_ms_p50", quantile(overhead, 0.5) * 1e3)
    layers.set("serve.rejected", counters.get("requests_rejected", 0))
    layers.set("obs.spans", tracer.sink.emitted / ops)
    return phase


# -- tune-cold ----------------------------------------------------------------


def tune_cold(args, t_start: float, workdir: str, check: Check):
    from repro import core
    from repro.machines.presets import get_preset
    from repro.store.registry import PlanRegistry, TuneKey

    all_cpus = pin_one_cpu()
    setup_speed = HostSpeed()
    speed = {"run": HostSpeed()}
    fill_kernel_cache()
    profile = get_preset(MACHINE)
    keys = [
        TuneKey(kind="multigrid-v", distribution="unbiased", max_level=level,
                seed=TRAIN_SEED, instances=TRAIN_INSTANCES, operator=family,
                backend="numpy")
        for family, level in TUNE_FAMILIES
    ]
    stores: dict[tuple[int, int], PlanRegistry] = {}
    hits: dict[tuple[int, int], Any] = {}
    times = OpTimes()

    def make_round(r: int) -> list[tuple[int, int, int]]:
        # Each (round, tuner config) tunes into a fresh file-backed store,
        # so every tune is cold; the order is fixed.
        return [(r, ci, fi) for ci in range(len(TUNE_CONFIGS)) for fi in range(len(keys))]

    def call(op):
        r, ci, fi = op
        tuner, jobs = TUNE_CONFIGS[ci]
        store = stores.get((r, ci))
        if store is None:
            path = os.path.join(workdir, f"tune-r{r}-{tuner}{jobs}.sqlite")
            store = stores[(r, ci)] = PlanRegistry(path)
        # Serial tunes stay on one vCPU; a jobs=2 pool gets both.
        if jobs == 1:
            pin_one_cpu()
        else:
            unpin(all_cpus)
        return store.get_or_tune(profile, keys[fi], jobs=jobs, tuner=tuner)

    def after(item, hit, seconds: float) -> None:
        op = item[1]
        _, ci, fi = op
        times.add(seconds)
        pin_one_cpu()
        speed["run"].probe()  # between tunes: the program is idle
        if hit.source != "tuned":
            check.fail(f"tune {op} was not cold (source {hit.source})")
        first = hits.setdefault((ci, fi), hit)
        if first.plan_json != hit.plan_json:
            check.fail(f"tune {op} gave a different plan than the same tune before")

    def close_stores() -> None:
        for store in stores.values():
            store.db.close()
        stores.clear()

    # Untimed warm-up pass: the serial DP tunes fill the process-wide
    # caches (shared operators, direct-solver factorizations) that every
    # later tune of the same families reads, including forked workers.
    for fi in range(len(keys)):
        setup_speed.probe()
        call((-1, 0, fi))
    close_stores()
    setup_speed.probe()
    seconds = args.seconds / 2 if args.trace else args.seconds
    setup_s = setup_seconds(t_start, setup_speed)
    # A round (~12 s here) outlasts --seconds; an untraced run measures
    # at least two, so its median rests on 24 tunes.
    feeder = RoundFeeder(make_round, seconds, min_rounds=1 if args.trace else 2)
    elapsed, ops = closed_loop(feeder, call, after)
    phase = Phase(elapsed - sum(speed["run"].samples), ops, speed["run"])
    rounds = feeder.rounds
    rss = peak_rss_mb()
    close_stores()
    info = {"speed_setup": setup_speed.factor(), "speed_run": phase.speed.factor()}
    if args.trace:
        layers = Layers()
        speed["run"] = HostSpeed()
        traced_feeder = RoundFeeder(lambda r: make_round(rounds + r), seconds)
        elapsed = _trace_tune(traced_feeder, call, after, hits, layers)
        traced = Phase(elapsed - sum(speed["run"].samples), traced_feeder.rounds * len(TUNE_CONFIGS) * len(keys),
                       speed["run"])
        close_stores()
        layers.set("obs.overhead_pct", (phase.throughput() / traced.throughput() - 1.0) * 100.0)
        layers.set("obs.host_speed_factor", traced.speed.factor())
        info["speed_run"] = traced.speed.factor()
        rounds += traced_feeder.rounds
    # Properties every tuned plan must have.
    for (ci, fi), hit in hits.items():
        plan = hit.plan
        missing = [(lvl, a) for lvl in range(1, plan.max_level + 1)
                   for a in range(plan.num_accuracies) if (lvl, a) not in plan.table]
        if missing or plan.max_level != keys[fi].max_level:
            check.fail(f"plan {TUNE_CONFIGS[ci]} {keys[fi].operator} misses slots {missing}")
    for fi in range(len(keys)):
        if hits[(0, fi)].plan_json != hits[(1, fi)].plan_json:
            check.fail(f"jobs=2 DP plan differs from jobs=1 for {keys[fi].operator}")
    # Accuracy on fixed (seed-independent) instances: a tune whose plan
    # misses a requested target there counts as a failed operation.
    refs = References(check)
    failed = 0
    for (ci, fi), hit in sorted(hits.items()):
        family, level = TUNE_FAMILIES[fi]
        missed = False
        for k in range(TUNE_PER_FAMILY):
            problem = core.poisson_problem("unbiased", n=2**level + 1, seed=PINNED_SEED + k,
                                           operator=family)
            for target in TARGETS:
                case = Case(-1, family, level, "unbiased", target, PINNED_SEED + k, True, problem)
                x, _ = core.solve(hit.plan, problem, target)
                missed |= refs.delivered(case, x) < target
        if missed:
            failed += rounds
    attempted = rounds * len(TUNE_CONFIGS) * len(keys)
    entries = []
    for fi, (family, level) in enumerate(TUNE_FAMILIES):
        problems = [core.poisson_problem("unbiased", n=2**level + 1,
                                         seed=held_out_seed(args.seed, k), operator=family)
                    for k in range(TUNE_PER_FAMILY)]
        for ci, name in ((0, "dp"), (2, "model")):
            entries.append((f"{family}:{name}", family, level, "unbiased",
                            hits[(ci, fi)].plan, problems))
    comparison = compare_with_heuristic(entries, check)
    if args.trace:
        layers.speedups_from(comparison)
        return attempted, failed, layers.metrics(), info
    return attempted, failed, end_to_end(
        phase, times, setup_s, rss, comparison["speedup"]), info


def _trace_tune(feeder: RoundFeeder, call, after, hits, layers: Layers) -> float:
    """Traced half of tune-cold: timers around the store, reference,
    parallel and DP boundaries plus the program's global tracer;
    returns its wall time."""
    import concurrent.futures.process as futures_process

    import repro.accuracy.reference as reference
    import repro.modeltuner.warmstart as warmstart
    from repro.obs import runtime
    from repro.parallel.executor import ProcessPoolTrialExecutor
    from repro.store.registry import PlanRegistry
    from repro.store.trialdb import TrialDB
    from repro.tuner.dp import VCycleTuner

    probes = Probes()

    def candidate(outcome, _token, *args, **kwargs) -> None:
        probes.add("dp.candidates", 1)
        if outcome is not None:
            probes.add("dp.evaluated", 1)
            probes.add("dp.feasible", 1 if outcome.feasible else 0)

    probes.wrap(PlanRegistry, "get", "store.lookup")
    probes.wrap(TrialDB, "write", "store.write",
                before=lambda db, fn: db.conn.total_changes,
                on_result=lambda _r, before, db, fn: probes.add(
                    "store.rows", db.conn.total_changes - before))
    probes.wrap(reference, "reference_solution", "accuracy.reference")
    probes.wrap(ProcessPoolTrialExecutor, "map", "parallel.map",
                on_result=lambda res, *_a, **_k: probes.add("parallel.tasks", len(res)))
    probes.wrap(futures_process.ProcessPoolExecutor, "_launch_processes", "parallel.pool_start")
    probes.wrap(VCycleTuner, "_evaluate_candidate", "dp.train", on_result=candidate)
    probes.wrap(warmstart, "fit_model_from_store", "modeltuner.fit")
    tracer = runtime.configure(capacity=TRACE_CAPACITY)
    try:
        elapsed, ops = closed_loop(feeder, call, after)
    finally:
        probes.restore()
        runtime.reset()
    rounds = feeder.rounds
    counts = {k: v / rounds for k, v in probes.counts.items()}

    def total(key: str) -> float:
        return probes.total(key) / rounds

    layers.set("tuner.dp.candidates", counts.get("dp.candidates", 0))
    layers.set("tuner.dp.evaluated", counts.get("dp.evaluated", 0))
    if counts.get("dp.evaluated"):
        layers.set("tuner.dp.feasible_ratio", counts["dp.feasible"] / counts["dp.evaluated"])
    layers.set("tuner.dp.train_s", total("dp.train"))
    layers.set("modeltuner.fit_s", total("modeltuner.fit"))
    model = [hit.plan.metadata for (ci, _), hit in hits.items() if TUNE_CONFIGS[ci][0] == "model"]
    layers.set("modeltuner.trials_used", sum(m["trials_used"] for m in model) / len(model))
    layers.set("modeltuner.budget_fraction",
               sum(m["budget_fraction"] for m in model) / len(model))
    layers.set("accuracy.reference_s", total("accuracy.reference"))
    layers.set("accuracy.reference_calls", probes.ncalls("accuracy.reference") / rounds)
    layers.set("parallel.pool_start_s", total("parallel.pool_start"))
    layers.set("parallel.map_s", total("parallel.map"))
    layers.set("parallel.tasks", counts.get("parallel.tasks", 0))
    layers.set("parallel.child_peak_rss_mb",
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
    layers.set("store.write_s", total("store.write"))
    layers.set("store.rows_written", counts.get("store.rows", 0))
    layers.set("store.lookup_s", total("store.lookup"))
    layers.set("store.lookups", probes.ncalls("store.lookup") / rounds)
    layers.set("obs.spans", tracer.sink.emitted / rounds)
    return elapsed
