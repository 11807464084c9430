"""Observability overhead gate: tracing must be free when off, cheap when on.

Times the acceptance workload — the DP-tuned level-7 V-cycle plan on
the 2-D Poisson operator, solved at its strictest trained accuracy —
through three identically-constructed executors.  The plan is the one
the tuner actually produces (cost-model timing, deterministic), not a
synthetic worst case: the paper's premise is that real tuned plans are
what production executes, and that is the wall-clock the 5% budget
protects.

* **disabled-a / disabled-b** — two default executors (no tracer, no
  profiler: the exact pre-observability hot path).  They form an A/A
  comparison: the observed spread is the measurement noise floor,
  demonstrating that a "disabled" run is statistically indistinguishable
  from the baseline.
* **enabled** — an executor with a live :class:`~repro.obs.Tracer`
  (production-default sink capacity, prefilled to steady state so
  samples pay the amortized trim cost a long-running server pays)
  recording per-level and per-op spans.  The gate requires its best
  sample within ``--max-overhead`` (default 5%) of the disabled best.

The gate statistic is the per-config **minimum**, per ``timeit``
practice: scheduler and frequency noise is one-sided (interruptions
only ever add time), so the minimum estimates the undisturbed cost and
converges far faster than the median on busy hosts; medians are still
reported for context.  The disabled baseline is the *mean* of the two
disabled minima — taking the lower would pool twice as many samples as
the enabled config gets and so be biased low under one-sided noise.
Samples run in short per-config **blocks** whose order rotates each
round: per-sample alternation would evict the tracer's working set
between every enabled sample (a state no traced production process is
ever in — servers trace solve after solve), while whole-config blocks
would let slow drift tax one config; short rotated blocks get both
steady-state caches and drift fairness.  Each sample starts from a
freshly-collected heap (``gc.collect()``) so GC pauses inherited from
earlier samples don't land on whichever config drew the short straw —
collections *triggered by* tracing allocations inside a sample still
count against the enabled config, as they should.

When the host is too noisy to certify a percentage (the A/A spread
exceeds ``--max-noise``), the relative gate is skipped with a note —
the same disposition ``bench_serve`` uses on CPU-starved hosts — and
the absolute gate still applies: a tight-loop measurement of the leaf
span start/finish pair must stay under ``--max-span-us``.  The enabled
run also asserts spans were actually recorded — a gate that passes
because tracing silently no-oped would be meaningless.

Environment overrides (for CI without editing workflows):
``$REPRO_MG_OBS_OVERHEAD`` (fraction, e.g. ``0.05``),
``$REPRO_MG_OBS_NOISE``, and ``$REPRO_MG_OBS_SPAN_US``.

Runnable standalone (CI's obs-smoke job uses ``--smoke``)::

    python benchmarks/bench_obs.py --smoke --json out.json   # 100 samples/config
    python benchmarks/bench_obs.py --level 7 --repeats 30
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from pathlib import Path

from repro.machines.presets import INTEL_HARPERTOWN
from repro.obs import Tracer
from repro.obs.bench import write_bench_report
from repro.tuner.dp import VCycleTuner
from repro.tuner.executor import PlanExecutor
from repro.tuner.plan import TunedVPlan
from repro.tuner.timing import CostModelTiming
from repro.tuner.training import TrainingData
from repro.util.validation import size_of_level
from repro.workloads.distributions import make_problem

OUT_DIR = Path(__file__).parent / "out"

OVERHEAD_ENV = "REPRO_MG_OBS_OVERHEAD"
NOISE_ENV = "REPRO_MG_OBS_NOISE"
SPAN_US_ENV = "REPRO_MG_OBS_SPAN_US"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--level", type=int, default=7,
        help="bench grid level (default 7, the acceptance level)",
    )
    parser.add_argument("--operator", default="poisson")
    parser.add_argument("--distribution", default="unbiased")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="timed samples per configuration (the per-config minimum "
        "is the gate statistic; default 30 full, 100 smoke)",
    )
    parser.add_argument(
        "--max-overhead", type=float, default=None, metavar="FRAC",
        help="fail if enabled tracing exceeds the disabled minimum by more "
        f"than this fraction (default: ${OVERHEAD_ENV} or 0.05; 0 disables)",
    )
    parser.add_argument(
        "--max-noise", type=float, default=None, metavar="FRAC",
        help="skip the relative gate if the two disabled runs' minima "
        f"differ by more than this fraction (default: ${NOISE_ENV} or "
        "0.03 full, 0.08 smoke; 0 never skips)",
    )
    parser.add_argument(
        "--max-span-us", type=float, default=None, metavar="US",
        help="fail if the tight-loop leaf span start/finish pair costs "
        f"more than this many microseconds (default: ${SPAN_US_ENV} or "
        "10.0; 0 disables)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="looser noise-certification bar and 100 samples per config "
        "for CI runners, whose min-of-30 moves by several percent between "
        "runs (same level 7 workload: smaller grids have too little per-op "
        "work to gate a percentage against)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help=f"write results as JSON (default: {OUT_DIR}/obs.json)",
    )
    return parser


def _tuned_plan(level: int, seed: int) -> TunedVPlan:
    """The DP-tuned V-cycle plan for ``level`` (cost-model timing:
    deterministic across hosts, tunes in milliseconds)."""
    training = TrainingData(distribution="unbiased", instances=2, seed=seed)
    return VCycleTuner(
        max_level=level,
        training=training,
        timing=CostModelTiming(INTEL_HARPERTOWN),
        keep_audit=False,
    ).tune()


def _span_pair_cost_us(iterations: int = 20000) -> float:
    """Tight-loop cost of one leaf record (clock read + deferred emit), in µs.

    Measured under a live parent (the production shape: op records
    always hang off an mg.level span) against a production-default
    ring, timing exactly what the executor's shim does per kernel call:
    one clock read plus one :meth:`Tracer.leaf`.
    """
    tracer = Tracer()
    attrs = {"level": 7, "backend": "numpy"}
    with tracer.span("bench.parent") as parent:
        now, leaf = tracer.clock.now_fn, tracer.leaf
        for _ in range(200):  # warm
            leaf("op.bench", attrs, now(), parent)
        gc.collect()
        t0 = time.perf_counter()
        for _ in range(iterations):
            leaf("op.bench", attrs, now(), parent)
        elapsed = time.perf_counter() - t0
    return elapsed / iterations * 1e6


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    level = args.level
    repeats = args.repeats
    if repeats is None:
        repeats = 100 if args.smoke else 30
    max_overhead = args.max_overhead
    if max_overhead is None:
        env = os.environ.get(OVERHEAD_ENV)
        max_overhead = float(env) if env is not None else 0.05
    max_noise = args.max_noise
    if max_noise is None:
        env = os.environ.get(NOISE_ENV)
        max_noise = float(env) if env is not None else (0.08 if args.smoke else 0.03)
    max_span_us = args.max_span_us
    if max_span_us is None:
        env = os.environ.get(SPAN_US_ENV)
        max_span_us = float(env) if env is not None else 10.0

    plan = _tuned_plan(level, args.seed)
    acc_index = len(plan.accuracies) - 1  # strictest trained accuracy
    n = size_of_level(level)
    problem = make_problem(args.distribution, n, args.seed, operator=args.operator)
    tracer = Tracer()  # production-default ring capacity

    configs = {
        "disabled_a": PlanExecutor(operator=args.operator),
        "disabled_b": PlanExecutor(operator=args.operator),
        "enabled": PlanExecutor(operator=args.operator, tracer=tracer),
    }

    def one_run(executor: PlanExecutor) -> None:
        x = problem.initial_guess()
        executor.run_v(plan, x, problem.b, acc_index)

    print(
        f"obs overhead bench: tuned level-{level} plan (n={n}, acc index "
        f"{acc_index}), {repeats} samples x {len(configs)} configs"
    )
    for executor in configs.values():  # warm bindings outside the timed loop
        one_run(executor)
    # Prefill the sink past capacity so timed samples run at steady
    # state (paying the amortized trim, as a long-running server does)
    # instead of appending into a buffer that is still growing.
    while tracer.sink.emitted <= tracer.sink.capacity + tracer.sink.capacity // 4:
        one_run(configs["enabled"])
    spans_before = tracer.sink.emitted

    samples: dict[str, list[float]] = {name: [] for name in configs}
    order = list(configs)
    block = 5
    rounds = (repeats + block - 1) // block
    for i in range(rounds):
        # Rotate the block order each round so slow drift (thermal /
        # frequency scaling) doesn't systematically tax one config.
        for name in order[i % len(order):] + order[:i % len(order)]:
            for _ in range(min(block, repeats - len(samples[name]))):
                gc.collect()
                start = time.perf_counter()
                one_run(configs[name])
                samples[name].append(time.perf_counter() - start)

    minima = {name: min(vals) for name, vals in samples.items()}
    medians = {name: statistics.median(vals) for name, vals in samples.items()}
    disabled = (minima["disabled_a"] + minima["disabled_b"]) / 2.0
    noise = (
        abs(minima["disabled_a"] - minima["disabled_b"]) / disabled
        if disabled > 0 else float("inf")
    )
    overhead = (
        minima["enabled"] / disabled - 1.0 if disabled > 0 else float("inf")
    )
    spans_recorded = tracer.sink.emitted - spans_before
    span_us = _span_pair_cost_us()

    for name in configs:
        print(
            f"  {name:>10}: min {minima[name] * 1e3:8.3f}ms  "
            f"median {medians[name] * 1e3:8.3f}ms"
        )
    print(
        f"  A/A noise {noise * 100:.2f}% (certify below {max_noise * 100:.1f}%), "
        f"enabled overhead {overhead * 100:+.2f}% "
        f"(gate {max_overhead * 100:.1f}%), "
        f"leaf span pair {span_us:.2f}us (gate {max_span_us:.1f}us), "
        f"{spans_recorded} span(s) recorded in timed runs"
    )

    report = {
        "config": {
            "level": level,
            "operator": args.operator,
            "distribution": args.distribution,
            "acc_index": acc_index,
            "repeats": repeats,
            "seed": args.seed,
            "smoke": args.smoke,
        },
        "minima_s": minima,
        "medians_s": medians,
        "noise_fraction": noise,
        "overhead_fraction": overhead,
        "span_pair_us": span_us,
        "max_noise": max_noise,
        "max_overhead": max_overhead,
        "max_span_us": max_span_us,
        "spans_recorded": spans_recorded,
    }
    out_path = Path(args.json) if args.json else OUT_DIR / "obs.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    envelope_path = write_bench_report("obs", report, time.time(), OUT_DIR)
    print(f"wrote {out_path} and {envelope_path}")

    failures = []
    if spans_recorded <= 0:
        failures.append("enabled run recorded no spans — the gate is vacuous")
    noisy_host = max_noise > 0 and noise > max_noise
    if noisy_host:
        print(
            f"NOTE: disabled A/A minima differ by {noise * 100:.2f}%, above "
            f"the {max_noise * 100:.1f}% certification bar — the host is too "
            "noisy to certify a relative overhead; skipping that gate "
            "(the absolute per-span gate below still applies)"
        )
        report["overhead_gate"] = "skipped-noisy-host"
    elif max_overhead > 0 and overhead > max_overhead:
        failures.append(
            f"enabled tracing costs {overhead * 100:.2f}% over disabled, "
            f"above the {max_overhead * 100:.1f}% gate"
        )
    if max_span_us > 0 and span_us > max_span_us:
        failures.append(
            f"leaf span start/finish pair costs {span_us:.2f}us, above the "
            f"{max_span_us:.1f}us gate"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
