"""One benchmark command for the solve, serve and tune paths.

    python3 perfbench/run.py --workload {solve-fine,serve-mixed,tune-cold} \
        --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout and imports the program from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Each run also appends one row to ``perfbench/out/run_table.csv``.
See ``perfbench/README.md`` for the workloads and what each metric means.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import csv  # noqa: E402
import datetime  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("solve-fine", "serve-mixed", "tune-cold")
#: the run's own deadline; past it, children are killed and the run fails
DEADLINE_S = 170.0
#: seeds are reduced modulo this, so held-out instance seeds stay below 2**32
SEED_SPACE = 2**20
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Any integer is a valid seed; the inputs are drawn from its residue
    # modulo SEED_SPACE, which keeps every derived problem seed in range.
    args.seed %= SEED_SPACE
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must be in (0, 60]")
    return args


def pin_environment() -> None:
    """Settings that must hold before numpy or the program is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    # Compiled kernels live in the benchmark's own directory, filled in
    # set-up; a shared store would turn the next run's tunes into hits.
    os.environ["REPRO_MG_KERNEL_CACHE"] = os.path.join(OUT_DIR, "kernel-cache")
    os.environ.pop("REPRO_MG_STORE", None)
    os.environ.pop("REPRO_MG_MP_START", None)


def arm_deadline(seconds: float) -> threading.Timer:
    def expire() -> None:
        import multiprocessing

        for child in multiprocessing.active_children():
            child.kill()
        print(f"perfbench: run exceeded its {seconds:.0f} s deadline", file=sys.stderr)
        sys.stderr.flush()
        os._exit(3)

    timer = threading.Timer(seconds, expire)
    timer.daemon = True
    timer.start()
    return timer


def check_no_leftovers(check) -> None:
    """No child process or non-daemon thread may outlive the workload."""
    import multiprocessing

    for child in multiprocessing.active_children():
        check.fail(f"child process {child.pid} ({child.name}) still running")
        child.kill()
        child.join(5)
    for thread in threading.enumerate():
        if thread is not threading.main_thread() and not thread.daemon and thread.is_alive():
            check.fail(f"non-daemon thread {thread.name!r} still running")


def git_revision() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_fingerprint() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20
    text = f"{cpu}|{os.cpu_count()}cpu|{mem}MiB|{platform.machine()}|py{platform.python_version()}"
    return f"{os.cpu_count()}cpu-{mem}MiB-" + hashlib.sha1(text.encode()).hexdigest()[:12]


def append_run_row(args, result, info, names) -> None:
    """One row per (workload, run) in the run_table.csv style; the host
    speed factors turn the scaled timings back into raw ones."""
    columns = ["utc", "revision", "host", "workload", "seed", "trace", "seconds",
               "attempted", "failed", "correct", "speed_setup", "speed_run", *names]
    path = os.path.join(OUT_DIR, "run_table.csv")
    if os.path.exists(path):
        with open(path, newline="") as f:
            header = next(csv.reader(f), None)
        if header != columns:  # written by another version of the benchmark
            os.replace(path, path + f".{int(os.path.getmtime(path))}")
    fresh = not os.path.exists(path)
    row = {
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "revision": git_revision(),
        "host": host_fingerprint(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["correct"],
        "speed_setup": f"{info.get('speed_setup', 0.0):.6g}",
        "speed_run": f"{info.get('speed_run', 0.0):.6g}",
    }
    row.update({name: f"{m['value']:.9g}" for name, m in result["metrics"].items()})
    with open(path, "a", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=columns)
        if fresh:
            writer.writeheader()
        writer.writerow(row)


def declared_metrics(trace: int) -> dict:
    """Metric names and units as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, BENCH_DIR)
    arm_deadline(DEADLINE_S)

    import workloads

    runner = {
        "solve-fine": workloads.solve_fine,
        "serve-mixed": workloads.serve_mixed,
        "tune-cold": workloads.tune_cold,
    }[args.workload]
    check = workloads.Check()
    os.makedirs(os.path.join(OUT_DIR, "tmp"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(OUT_DIR, "tmp"))
    try:
        attempted, failed, metrics, info = runner(args, T_START, workdir, check)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_no_leftovers(check)
    declared = declared_metrics(args.trace)
    emitted = {name: m["unit"] for name, m in metrics.items()}
    if emitted != declared:
        print(f"perfbench: metrics {sorted(set(emitted) ^ set(declared))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 4
    result = {"correct": check.ok, "attempted": attempted, "failed": failed, "metrics": metrics}
    e2e = list(declared_metrics(0))
    append_run_row(args, result, info, e2e + list(declared_metrics(1)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
