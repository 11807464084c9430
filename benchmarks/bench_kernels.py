"""Kernel backend bench: accelerated backends vs the NumPy reference.

Times every accelerable primitive (SOR sweep, residual, restriction,
interpolation+correction) for the requested backend against the NumPy
reference at the bench level, then executes one *tuner-selected* plan
both ways — per-level backends as tuned, and with the backends stripped
— and compares wall-clock.  Byte-identity is asserted throughout: every
accelerated kernel must reproduce the reference bit-for-bit, and the
two plan executions must return byte-identical solution grids (the
contract that makes the backend a pure pricing dimension).

Gates:

* byte-identity of every kernel and of the plan executions (always);
* ``--min-speedup X``: V-cycles at the bench level on the accelerated
  backend must run >= X times faster than the same cycles on NumPy
  (README's example bar is 3x on level-7 2-D V-cycles).  The tuned plan's
  end-to-end speedup is reported too, but the gate is the V-cycle
  workload — a DP plan's wall-clock is partly direct solves whose
  per-call SciPy overhead no backend can touch;
* the tuner must actually *select* the accelerated backend on at least
  one level whenever ``--min-speedup`` is given.

Runnable standalone::

    python benchmarks/bench_kernels.py --smoke --json out.json
    python benchmarks/bench_kernels.py --min-speedup 3
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.kernels import backend_provenance, get_backend, resolve_backend
from repro.machines.presets import get_preset
from repro.operators.spec import shared_operator
from repro.tuner.dp import VCycleTuner
from repro.tuner.executor import PlanExecutor
from repro.tuner.plan import TunedVPlan
from repro.tuner.timing import CostModelTiming
from repro.tuner.training import TrainingData
from repro.util.validation import size_of_level
from repro.workloads.distributions import make_problem

OUT_DIR = Path(__file__).parent / "out"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--backend", default="auto",
        help="kernel backend to bench against NumPy (default: auto — the "
        "best backend available on this host)",
    )
    parser.add_argument(
        "--operator", default="poisson",
        help="operator spec to bench (default poisson)",
    )
    parser.add_argument(
        "--level", type=int, default=7,
        help="bench grid level (default 7, the acceptance level; smoke: 5)",
    )
    parser.add_argument("--machine", default="intel")
    parser.add_argument("--distribution", default="unbiased")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--repeats", type=int, default=5, help="timing repeats (median wins)"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small level / few repeats; gates byte-identity only",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None, metavar="X",
        help="fail unless the tuned plan with accelerated levels runs "
        ">= X times faster than the same plan on NumPy",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help=f"write results as JSON (default: {OUT_DIR}/kernels.json)",
    )
    return parser


def _median_time(fn, repeats: int, inner: int = 3) -> float:
    """Median seconds of ``inner`` back-to-back calls (best of repeats)."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - start) / inner)
    samples.sort()
    return samples[len(samples) // 2]


def bench_primitives(
    backend_name: str, operator: str, level: int, seed: int, repeats: int
) -> tuple[list[dict], list[str]]:
    """Per-kernel timings + byte-identity checks at the bench level.

    Returns (rows, failures); each row compares one primitive's NumPy
    reference against the accelerated binding on identical inputs.
    """
    n = size_of_level(level)
    op = shared_operator(operator, n)
    accel = get_backend(backend_name)
    accel.warmup()
    ref = get_backend("numpy").bind(op)
    fast = accel.bind(op)
    if fast is None:
        return [], [f"backend {backend_name!r} does not bind {operator!r}"]

    rng = np.random.default_rng(seed)
    shape = (n,) * op.ndim
    u0 = rng.uniform(-1.0, 1.0, size=shape)
    b = rng.uniform(-1.0, 1.0, size=shape)
    omega = op.omega_opt()

    rows: list[dict] = []
    failures: list[str] = []

    def compare(name: str, ref_run, fast_run, ref_out, fast_out) -> None:
        identical = bool(np.array_equal(ref_out, fast_out))
        if not identical:
            failures.append(f"{name}: {backend_name} differs from numpy at n={n}")
        t_ref = _median_time(ref_run, repeats)
        t_fast = _median_time(fast_run, repeats)
        rows.append(
            {
                "kernel": name,
                "n": n,
                "numpy_s": t_ref,
                f"{backend_name}_s": t_fast,
                "ratio": t_ref / t_fast if t_fast > 0 else float("inf"),
                "byte_identical": identical,
            }
        )

    ur, uf = u0.copy(), u0.copy()
    ref.sor_sweeps(ur, b, omega, 1)
    fast.sor_sweeps(uf, b, omega, 1)
    compare(
        "sor_sweep",
        lambda: ref.sor_sweeps(u0.copy(), b, omega, 1),
        lambda: fast.sor_sweeps(u0.copy(), b, omega, 1),
        ur,
        uf,
    )
    compare(
        "residual",
        lambda: ref.residual(u0, b),
        lambda: fast.residual(u0, b),
        ref.residual(u0, b),
        fast.residual(u0, b),
    )
    r = ref.residual(u0, b)
    compare(
        "restrict",
        lambda: ref.restrict(r),
        lambda: fast.restrict(r),
        ref.restrict(r),
        fast.restrict(r),
    )
    ec = ref.restrict(r)
    xr, xf = u0.copy(), u0.copy()
    ref.interpolate_correction(xr, ec)
    fast.interpolate_correction(xf, ec)
    compare(
        "interpolate",
        lambda: ref.interpolate_correction(u0.copy(), ec),
        lambda: fast.interpolate_correction(u0.copy(), ec),
        xr,
        xf,
    )
    return rows, failures


def _run_both_ways(
    plan: TunedVPlan,
    operator: str,
    distribution: str,
    seed: int,
    repeats: int,
) -> tuple[dict, list[str]]:
    """Execute ``plan`` as tuned and with its backends stripped.

    Executors are warmed (direct-solver factorizations, kernel bindings)
    before timing, so the comparison is steady-state plan execution.
    Returns wall-clocks, the speedup, and a byte-identity verdict.
    """
    reference = TunedVPlan(
        accuracies=plan.accuracies,
        max_level=plan.max_level,
        table=plan.table,
        metadata={k: v for k, v in plan.metadata.items() if k != "backend"},
        ndim=plan.ndim,
    )
    acc_index = plan.num_accuracies - 1
    n = size_of_level(plan.max_level)
    problem = make_problem(distribution, n, seed, operator=operator)
    failures: list[str] = []

    def runner(p):
        executor = PlanExecutor(operator=operator)

        def run() -> np.ndarray:
            x = problem.initial_guess()
            executor.run_v(p, x, problem.b, acc_index)
            return x

        return run

    run_fast, run_ref = runner(plan), runner(reference)
    x_fast, x_ref = run_fast(), run_ref()  # also warms both executors
    identical = bool(np.array_equal(x_fast, x_ref))
    if not identical:
        failures.append(
            "plan executed with its accelerated levels is not "
            "byte-identical to the NumPy execution"
        )
    wall_fast = _median_time(run_fast, repeats, inner=1)
    wall_ref = _median_time(run_ref, repeats, inner=1)
    report = {
        "level": plan.max_level,
        "backends": {str(k): v for k, v in sorted(plan.backends.items())},
        "numpy_wall_s": wall_ref,
        "accelerated_wall_s": wall_fast,
        "speedup": wall_ref / wall_fast if wall_fast > 0 else float("inf"),
        "byte_identical": identical,
    }
    return report, failures


def bench_tuned_plan(
    backend_name: str,
    operator: str,
    distribution: str,
    level: int,
    machine: str,
    seed: int,
    repeats: int,
) -> tuple[dict, list[str]]:
    """Tune one plan with the backend axis and execute it both ways."""
    profile = get_preset(machine)
    plan = VCycleTuner(
        max_level=level,
        training=TrainingData(
            distribution=distribution, instances=2, seed=seed, operator=operator
        ),
        timing=CostModelTiming(profile),
        backend=backend_name,
        keep_audit=False,
    ).tune()
    report, failures = _run_both_ways(plan, operator, distribution, seed, repeats)
    report["tuned_backends"] = report.pop("backends")
    return report, failures


def bench_vcycles(
    backend_name: str,
    operator: str,
    distribution: str,
    level: int,
    seed: int,
    repeats: int,
    cycles: int = 3,
) -> tuple[dict, list[str]]:
    """The ``--min-speedup`` gate workload: pure V-cycles at ``level``.

    A recurse-to-the-bottom plan (SOR smoothing at the coarsest level,
    every level on the accelerated backend) isolates the stencil
    kernels this bench exists to measure — a DP-tuned plan's wall-clock
    is diluted by its direct solves, whose SciPy per-call overhead is
    identical on every backend.
    """
    from repro.tuner.choices import RecurseChoice, SORChoice

    # Level 1 never runs (recursion bottoms out at level 2) but the
    # plan table must cover every level >= 1 to validate.
    table = {(1, 0): SORChoice(iterations=1), (2, 0): SORChoice(iterations=4)}
    for lvl in range(3, level + 1):
        table[(lvl, 0)] = RecurseChoice(iterations=cycles if lvl == level else 1,
                                        sub_accuracy=0)
    plan = TunedVPlan(
        accuracies=(1e1,),
        max_level=level,
        table=table,
        metadata={"operator": operator},
        backends={lvl: backend_name for lvl in range(2, level + 1)},
    )
    report, failures = _run_both_ways(plan, operator, distribution, seed, repeats)
    report["cycles"] = cycles
    return report, failures


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    level = 5 if args.smoke else args.level
    repeats = 2 if args.smoke else args.repeats
    requested = resolve_backend(args.backend)
    backend = requested
    if backend != "numpy" and not get_backend(backend).available():
        # An explicitly requested backend this host cannot run: report
        # the numpy fallback rather than dying in bind().
        print(f"backend {backend!r} is unavailable here (numpy-fallback)")
        backend = "numpy"
    provenance = backend_provenance(backend)

    report: dict = {
        "operator": args.operator,
        "level": level,
        "machine": args.machine,
        "smoke": args.smoke,
        "backend": backend if backend == requested else "numpy-fallback",
        "requested_backend": requested,
        "provenance": provenance,
    }
    failures: list[str] = []

    print(
        f"kernel bench: operator={args.operator}, level {level} "
        f"(n={size_of_level(level)}), backend={backend} "
        f"[{provenance.get('detail', '')}]"
    )

    if backend == "numpy":
        # No accelerated backend on this host: provenance-only report.
        print("no accelerated backend available (numpy-fallback)")
        if args.min_speedup is not None:
            failures.append(
                f"--min-speedup {args.min_speedup:g} requires an accelerated "
                "backend, but none is available on this host"
            )
    else:
        rows, kernel_failures = bench_primitives(
            backend, args.operator, level, args.seed, repeats
        )
        failures.extend(kernel_failures)
        report["kernels"] = rows
        for row in rows:
            print(
                f"  {row['kernel']:<12} numpy={row['numpy_s'] * 1e6:8.1f}us  "
                f"{backend}={row[f'{backend}_s'] * 1e6:8.1f}us  "
                f"ratio={row['ratio']:.2f}x  "
                f"identical={row['byte_identical']}"
            )

        plan_report, plan_failures = bench_tuned_plan(
            backend, args.operator, args.distribution, level,
            args.machine, args.seed, repeats,
        )
        failures.extend(plan_failures)
        report["plan"] = plan_report
        print(
            f"tuned plan (backends {plan_report['tuned_backends'] or '{}'}): "
            f"numpy={plan_report['numpy_wall_s'] * 1e3:.2f}ms  "
            f"{backend}={plan_report['accelerated_wall_s'] * 1e3:.2f}ms  "
            f"speedup={plan_report['speedup']:.2f}x"
        )

        vcycle_report, vcycle_failures = bench_vcycles(
            backend, args.operator, args.distribution, level,
            args.seed, repeats,
        )
        failures.extend(vcycle_failures)
        report["vcycles"] = vcycle_report
        print(
            f"V-cycles at level {level} (x{vcycle_report['cycles']}): "
            f"numpy={vcycle_report['numpy_wall_s'] * 1e3:.2f}ms  "
            f"{backend}={vcycle_report['accelerated_wall_s'] * 1e3:.2f}ms  "
            f"speedup={vcycle_report['speedup']:.2f}x"
        )

        if args.min_speedup is not None:
            if not plan_report["tuned_backends"]:
                failures.append(
                    f"tuner did not select backend {backend!r} on any level "
                    f"at level {level}"
                )
            if vcycle_report["speedup"] < args.min_speedup:
                failures.append(
                    f"V-cycle speedup {vcycle_report['speedup']:.2f}x is below "
                    f"the --min-speedup bar {args.min_speedup:g}x"
                )

    out_path = Path(args.json) if args.json else OUT_DIR / "kernels.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
