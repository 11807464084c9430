"""Command-line interface.

Four subcommand groups share the ``repro-mg`` executable (the paper's
tables and figures come from ``benchmarks/paper_figures.py``):

* ``repro-mg store <tune|ls|export|gc> [options]`` — operate the
  persistent tuning store (run resumable campaigns, list stored plans,
  export the trial run table, compact the database);
* ``repro-mg fleet <enqueue|work|status|export> [options]`` — run a
  distributed tuning fleet: seed the lease-based work queue with a
  campaign, start pull-based workers against the shared store, watch
  heartbeats, export the per-cell provenance run table;
* ``repro-mg serve [warm|bench] [options]`` — run the solve server:
  warm the plan cache for named workload classes, or drive it with the
  built-in closed-loop load generator and print telemetry (add
  ``--trace`` to record a span tree per request);
* ``repro-mg obs <report|trace|export> [options]`` — observability
  tooling: summarize schema-versioned bench reports, pretty-print
  recorded span trees, convert span logs to Chrome ``trace_event``
  JSON or telemetry snapshots to Prometheus text format.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.util import format_table

__all__ = ["main"]


def _version() -> str:
    """Package version from installed metadata, else the source tree."""
    try:
        from importlib.metadata import version

        return version("repro-mg")
    except Exception:
        from repro import __version__

        return __version__


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mg",
        description="Tuning store, fleet, solve server and observability tooling "
        "for 'Autotuning Multigrid with PetaBricks' (SC'09)",
        epilog="Each group has its own --help.  The paper's tables and figures "
        "come from `python benchmarks/paper_figures.py`.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_version()}"
    )
    parser.add_argument("group", choices=["store", "fleet", "serve", "obs"])
    return parser


def _add_campaign_grid_arguments(parser: argparse.ArgumentParser) -> None:
    """The campaign-grid flags shared by ``store tune`` and ``fleet
    enqueue`` (one grid vocabulary, whichever engine runs the cells)."""
    parser.add_argument("--campaign", default="default", help="campaign name")
    parser.add_argument(
        "--machine",
        action="append",
        dest="machines",
        metavar="PRESET",
        help="machine preset (repeatable; default: intel amd sun)",
    )
    parser.add_argument(
        "--distribution",
        action="append",
        dest="distributions",
        metavar="DIST",
        help="input distribution (repeatable; default: unbiased)",
    )
    parser.add_argument(
        "--max-level",
        action="append",
        dest="levels",
        type=int,
        metavar="L",
        help="finest grid level (repeatable; default: 5)",
    )
    from repro.operators import operator_families

    parser.add_argument(
        "--operator",
        action="append",
        dest="operators",
        metavar="OP",
        help="operator spec (repeatable; default: poisson — or poisson3d "
        f"with --ndim 3; families: {', '.join(sorted(operator_families()))}; "
        "e.g. anisotropic(epsilon=0.01), anisotropic3d(epsx=0.01))",
    )
    parser.add_argument(
        "--ndim",
        type=int,
        choices=(2, 3),
        default=None,
        help="grid dimensionality of the campaign (default: derived from "
        "--operator, 2 when neither is given; picks the default operator "
        "family and validates explicit --operator specs)",
    )
    parser.add_argument(
        "--kind", choices=["multigrid-v", "full-multigrid"], default="multigrid-v"
    )
    parser.add_argument(
        "--backend",
        default="numpy",
        metavar="NAME",
        help="kernel backend the tuner may place on fine levels: numpy "
        "(default, the reference), cnative, numba, or auto (best backend "
        "available on the tuning host; each fleet worker resolves it "
        "against its own availability)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--instances", type=int, default=2)
    parser.add_argument(
        "--tuner",
        choices=["dp", "model"],
        default="dp",
        help="search used for cold cells: dp (exhaustive, the paper's "
        "tuner) or model (learned-cost-model Bayesian optimization at a "
        "fraction of the trial budget, warm-started from the store)",
    )


def _campaign_spec_from_args(args: argparse.Namespace, error) -> "CampaignSpec":  # type: ignore[name-defined]  # noqa: F821
    """Build the CampaignSpec the grid flags describe (usage errors via
    ``error``, mirroring argparse semantics)."""
    from repro.operators.spec import default_operator_spec, parse_operator
    from repro.store import CampaignSpec

    operators = tuple(
        args.operators
        or (default_operator_spec(args.ndim if args.ndim else 2).canonical(),)
    )
    # An unspecified --ndim derives from the operators (core API
    # semantics); an explicit one must match every spec.
    if args.ndim is not None:
        for op in operators:
            spec_ndim = parse_operator(op).ndim
            if spec_ndim != args.ndim:
                error(
                    f"--operator {op!r} is a {spec_ndim}-D family but "
                    f"--ndim is {args.ndim}"
                )
    return CampaignSpec(
        name=args.campaign,
        machines=tuple(args.machines or ("intel", "amd", "sun")),
        distributions=tuple(args.distributions or ("unbiased",)),
        levels=tuple(args.levels or (5,)),
        operators=operators,
        kind=args.kind,
        seed=args.seed,
        instances=args.instances,
        backend=args.backend,
        tuner=args.tuner,
    )


def build_store_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mg store",
        description="Operate the persistent tuning store (SQLite trial "
        "database + plan registry + resumable campaigns).",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_version()}"
    )
    parser.add_argument(
        "--db",
        default=None,
        help="store database path (default: $REPRO_MG_STORE or "
        "./repro-mg-store.sqlite)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tune = sub.add_parser(
        "tune",
        help="run (or resume) a tuning campaign over a machine x "
        "distribution x level grid",
    )
    _add_campaign_grid_arguments(tune)
    tune.add_argument(
        "--max-cells", type=int, default=None, help="stop after N pending cells"
    )
    tune.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="tune up to N campaign cells in parallel worker processes "
        "(requires a file-backed --db; results are identical to --jobs 1)",
    )

    ls = sub.add_parser("ls", help="list stored plans (or trials)")
    ls.add_argument("--trials", action="store_true", help="list the trial log instead")
    ls.add_argument(
        "--operator",
        metavar="OP",
        default=None,
        help="only rows for this operator spec (any spelling; symmetric "
        "with `store tune --operator`)",
    )

    export = sub.add_parser("export", help="export the trial run table")
    export.add_argument("--csv", metavar="PATH", help="write CSV here instead of stdout")

    sub.add_parser("gc", help="drop superseded trials and stale cells, VACUUM")
    return parser


def _store_main(argv: list[str]) -> int:
    import os

    from repro.core.api import STORE_ENV
    from repro.store import Campaign, PlanRegistry, TrialDB

    args = build_store_parser().parse_args(argv)
    db_path = args.db or os.environ.get(STORE_ENV, "repro-mg-store.sqlite")
    db = TrialDB(db_path)

    if args.command == "tune":
        spec = _campaign_spec_from_args(args, build_store_parser().error)
        campaign = Campaign(spec, db)
        pending_before = len(campaign.pending())
        campaign.run(
            max_cells=args.max_cells,
            jobs=args.jobs,
            on_cell=lambda cell: print(
                f"  {cell.machine:>16}  {cell.distribution:<9} "
                f"{cell.operator:<12} L{cell.max_level}  {cell.source:<7} "
                f"cost={cell.simulated_cost:.3e}  wall={cell.wall_seconds:.2f}s"
            ),
        )
        status = campaign.status()
        print(
            f"campaign {spec.name!r}: {status.get('done', 0)} done, "
            f"{status.get('pending', 0)} pending "
            f"({pending_before - len(campaign.pending())} cells this run)"
        )
        print(campaign.run_table())
        return 0

    if args.command == "ls":
        if args.trials:
            if args.operator is None:
                print(db.format_run_table())
            else:
                trials = db.trials(operator=args.operator)
                if not trials:
                    print(f"(no trials stored for operator {args.operator!r})")
                else:
                    headers = ["kind", "distribution", "operator", "max_level",
                               "machine_name", "cycle_shape"]
                    rows = [[str(getattr(t, h)) for h in headers] for t in trials]
                    print(format_table(headers, rows))
        else:
            registry = PlanRegistry(db)
            plans = registry.plans(operator=args.operator)
            if not plans:
                suffix = (
                    f" for operator {args.operator!r}" if args.operator else ""
                )
                print(f"(no plans stored{suffix})")
            else:
                headers = list(plans[0])
                rows = [[str(p[h]) for h in headers] for p in plans]
                print(format_table(headers, rows))
        return 0

    if args.command == "export":
        if args.csv:
            count = db.export_csv(args.csv)
            print(f"wrote {count} trial rows to {args.csv}")
        else:
            print(db.format_run_table())
        return 0

    if args.command == "gc":
        removed = db.gc()
        print(
            f"removed {removed['trials']} superseded trial(s) and "
            f"{removed['campaign_cells']} stale campaign cell(s)"
        )
        return 0

    raise AssertionError(f"unhandled store command {args.command!r}")


def build_fleet_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mg fleet",
        description="Operate a distributed tuning fleet: enqueue a campaign "
        "into the shared store's lease-based work queue, run pull-based "
        "workers against it, watch worker heartbeats, and export the "
        "per-cell provenance run table.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_version()}"
    )
    parser.add_argument(
        "--db",
        default=None,
        help="shared store database path (default: $REPRO_MG_STORE or "
        "./repro-mg-store.sqlite)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enqueue = sub.add_parser(
        "enqueue",
        help="seed the work queue with a campaign grid (idempotent) and "
        "persist its spec for workers",
    )
    _add_campaign_grid_arguments(enqueue)

    work = sub.add_parser(
        "work",
        help="run one pull-based worker until the campaign settles",
    )
    work.add_argument("--campaign", default="default", help="campaign name")
    work.add_argument(
        "--worker-id",
        default=None,
        help="unique worker identity (default: host:pid)",
    )
    work.add_argument(
        "--lease-ttl",
        type=float,
        default=120.0,
        metavar="SECONDS",
        help="lease duration per claimed cell; a worker dead longer than "
        "this has its cells re-claimed by survivors (default: 120)",
    )
    work.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        metavar="N",
        help="claims a cell gets before it is parked as poisoned (default: 3)",
    )
    work.add_argument(
        "--max-cells", type=int, default=None, help="stop after N completed cells"
    )
    work.add_argument(
        "--machine",
        action="append",
        dest="machines",
        metavar="PRESET",
        help="only claim cells for these machine presets (repeatable; "
        "default: any)",
    )
    work.add_argument(
        "--no-wait",
        action="store_true",
        help="exit as soon as no cell is claimable instead of waiting for "
        "other workers' leases to resolve",
    )

    status = sub.add_parser(
        "status", help="queue counts + worker heartbeats for a campaign"
    )
    status.add_argument("--campaign", default="default", help="campaign name")
    status.add_argument(
        "--json", action="store_true", help="print the snapshot as JSON"
    )

    export = sub.add_parser(
        "export", help="write the per-cell provenance run table"
    )
    export.add_argument("--campaign", default="default", help="campaign name")
    export.add_argument(
        "--csv", metavar="PATH", help="write run_table.csv here instead of stdout"
    )
    return parser


def _fleet_main(argv: list[str]) -> int:
    import json
    import os

    from repro.core.api import STORE_ENV
    from repro.fleet import FleetCoordinator, FleetWorker
    from repro.store import TrialDB

    args = build_fleet_parser().parse_args(argv)
    db_path = args.db or os.environ.get(STORE_ENV, "repro-mg-store.sqlite")
    db = TrialDB(db_path)

    if args.command == "enqueue":
        spec = _campaign_spec_from_args(args, build_fleet_parser().error)
        coordinator = FleetCoordinator(db, spec.name)
        open_cells = coordinator.enqueue(spec)
        print(
            f"campaign {spec.name!r}: {len(spec.cells())} cells in grid, "
            f"{open_cells} open for workers"
        )
        return 0

    if args.command == "work":
        worker = FleetWorker(
            db,
            args.campaign,
            worker_id=args.worker_id,
            lease_ttl=args.lease_ttl,
            max_attempts=args.max_attempts,
            machines=tuple(args.machines) if args.machines else None,
        )
        print(f"worker {worker.worker_id!r} pulling from {args.campaign!r}")
        results = worker.run(
            max_cells=args.max_cells, wait_for_leased=not args.no_wait
        )
        for cell in results:
            print(
                f"  {cell.machine:>16}  {cell.distribution:<9} "
                f"{cell.operator:<12} L{cell.max_level}  {cell.source:<7} "
                f"cost={cell.simulated_cost:.3e}  wall={cell.wall_seconds:.2f}s"
            )
        snapshot = worker.telemetry.snapshot()
        print(
            f"worker {worker.worker_id!r}: "
            f"{snapshot['counters'].get('cells_done', 0)} done, "
            f"{snapshot['counters'].get('cells_failed', 0)} failed, "
            f"{snapshot['counters'].get('leases_lost', 0)} leases lost"
        )
        return 0

    if args.command == "status":
        coordinator = FleetCoordinator(db, args.campaign)
        if args.json:
            print(json.dumps(coordinator.status(), indent=2))
        else:
            print(coordinator.format_status())
        return 0

    if args.command == "export":
        coordinator = FleetCoordinator(db, args.campaign)
        if args.csv:
            count = coordinator.export_run_table(args.csv)
            print(f"wrote {count} cell rows to {args.csv}")
        else:
            headers, rows = coordinator.run_table_rows()
            if not rows:
                print(f"(no cells enqueued for campaign {args.campaign!r})")
            else:
                display = [
                    ["-" if v is None else str(v) for v in row] for row in rows
                ]
                print(format_table(headers, display))
        return 0

    raise AssertionError(f"unhandled fleet command {args.command!r}")


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mg serve",
        description="Run the batched, cache-warmed solve server: warm the "
        "plan cache for named workload classes, or drive it with the "
        "closed-loop load generator and print the telemetry snapshot.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_version()}"
    )
    parser.add_argument(
        "mode",
        nargs="?",
        choices=["warm", "bench"],
        default="warm",
        help="warm: tune-and-cache the --warm classes and print telemetry; "
        "bench: additionally fire a closed-loop request stream (default: warm)",
    )
    parser.add_argument(
        "--db",
        default=None,
        help="store database path (default: $REPRO_MG_STORE or "
        "./repro-mg-store.sqlite)",
    )
    parser.add_argument("--machine", default="intel", help="machine preset")
    parser.add_argument(
        "--warm",
        action="append",
        dest="warm_specs",
        type=parse_warm_spec,
        metavar="DIST:LEVEL[:OPERATOR]",
        help="workload class to warm before serving (repeatable; e.g. "
        "unbiased:5 or biased:5:anisotropic(epsilon=0.01); "
        "default: unbiased:5)",
    )
    parser.add_argument(
        "--no-warm",
        action="store_true",
        help="skip warmup entirely (cold keys serve the heuristic fallback "
        "and tune in the background)",
    )
    parser.add_argument("--workers", type=int, default=2, help="serving threads")
    parser.add_argument("--queue-size", type=int, default=128)
    parser.add_argument("--batch-size", type=int, default=8)
    parser.add_argument("--instances", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--kind", choices=["multigrid-v", "full-multigrid"], default="multigrid-v"
    )
    parser.add_argument(
        "--backend",
        default="numpy",
        metavar="NAME",
        help="kernel backend served plans are tuned against: numpy "
        "(default), cnative, numba, or auto (best available on this host)",
    )
    parser.add_argument(
        "--requests", type=int, default=64, help="bench mode: total requests"
    )
    parser.add_argument(
        "--clients", type=int, default=4, help="bench mode: closed-loop clients"
    )
    parser.add_argument(
        "--target", type=float, default=1e5, help="bench mode: target accuracy"
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="serve through a sharded front door over N worker processes "
        "(zero-copy shared-memory payloads) instead of one in-process server",
    )
    parser.add_argument(
        "--loadgen-seed",
        type=int,
        default=123,
        metavar="SEED",
        help="bench mode: RNG seed for the mixed-traffic schedule "
        "(same seed = byte-identical traffic)",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write the telemetry snapshot JSON here"
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record a span tree per request (frontdoor/shard/batch/"
        "plan-cache/per-level executor ops); bench reports then carry "
        "per-request trace ids",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="with --trace: write the recorded spans as JSONL here "
        "(convert with `repro-mg obs export`)",
    )
    parser.add_argument(
        "--bench-out",
        metavar="DIR",
        default="benchmarks/out",
        help="bench mode: directory for the schema-versioned BENCH_*.json "
        "envelope (default: benchmarks/out)",
    )
    return parser


def parse_warm_spec(text: str) -> tuple[str, int, str | None]:
    """``DIST:LEVEL[:OPERATOR]`` -> (distribution, level, operator).

    Used as the ``type=`` of ``serve --warm``, so malformed specs become
    argparse usage errors (exit code 2), not tracebacks.
    """
    parts = text.split(":", 2)
    if len(parts) < 2:
        raise ValueError(
            f"warm spec {text!r} must be DIST:LEVEL[:OPERATOR], e.g. unbiased:5"
        )
    dist, level = parts[0], int(parts[1])
    operator = parts[2] if len(parts) == 3 else None
    return dist, level, operator


def _serve_main(argv: list[str]) -> int:
    import json
    import os

    from repro.core.api import STORE_ENV, open_server
    from repro.serve.loadgen import run_load

    args = build_serve_parser().parse_args(argv)
    db_path = args.db or os.environ.get(STORE_ENV, "repro-mg-store.sqlite")
    specs = args.warm_specs or [parse_warm_spec("unbiased:5")]

    tracer = None
    if args.trace:
        from repro.obs import Tracer

        tracer = Tracer(capacity=65536)

    options = dict(
        workers=args.workers,
        queue_size=args.queue_size,
        batch_size=args.batch_size,
        kind=args.kind,
        seed=args.seed,
        instances=args.instances,
        backend=args.backend,
        tracer=tracer,
    )
    server = open_server(args.machine, db_path, shards=args.shards, **options)
    report = None
    with server:
        if not args.no_warm:
            for dist, level, operator in specs:
                start = time.perf_counter()
                entry = server.warm(dist, level, operator)
                source = (
                    entry.get("source", "?")
                    if isinstance(entry, dict)
                    else entry.source
                )
                print(
                    f"warmed {dist}:L{level}:{operator or 'poisson'}  "
                    f"source={source}  "
                    f"({time.perf_counter() - start:.2f}s)"
                )
        if args.mode == "bench":
            report = run_load(
                server,
                specs,
                requests=args.requests,
                clients=args.clients,
                target=args.target,
                seed=args.loadgen_seed,
            )
            print(
                f"served {report['completed']} requests "
                f"({report['rejected']} rejected) in "
                f"{report['wall_seconds']:.2f}s = "
                f"{report['throughput_rps']:.1f} req/s"
            )
            print(
                "latency p50/p95/p99: "
                + " / ".join(
                    f"{report[k] * 1e3:.2f}ms"
                    for k in ("p50_s", "p95_s", "p99_s")
                )
            )
        server.wait_for_swaps(timeout=1.0)
        snapshot = server.stats()
    print(json.dumps(snapshot, indent=2))
    if args.json:
        from pathlib import Path

        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json).write_text(json.dumps(snapshot, indent=2) + "\n")
        print(f"wrote {args.json}")
    if report is not None:
        from repro.obs.bench import write_bench_report

        envelope_path = write_bench_report(
            "serve_cli",
            {"load": report, "telemetry": snapshot},
            time.time(),
            args.bench_out,
        )
        print(f"wrote {envelope_path}")
    if tracer is not None:
        spans = tracer.spans()
        print(
            f"traced {len(spans)} span(s) across "
            f"{len(tracer.sink.trace_ids())} trace(s)"
        )
        if args.trace_out:
            from repro.obs import write_spans_jsonl

            count = write_spans_jsonl(spans, args.trace_out)
            print(f"wrote {count} span(s) to {args.trace_out}")
    return 0


def build_obs_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mg obs",
        description="Observability tooling: summarize schema-versioned "
        "bench reports, pretty-print recorded span trees, and convert "
        "span logs / telemetry snapshots for external viewers.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report", help="summarize BENCH_*.json envelopes in a directory"
    )
    report.add_argument(
        "--dir",
        default="benchmarks/out",
        help="directory holding BENCH_*.json envelopes (default: "
        "benchmarks/out)",
    )
    report.add_argument(
        "--json", action="store_true", help="print the envelopes as JSON"
    )

    trace = sub.add_parser(
        "trace", help="pretty-print span trees from a spans JSONL file"
    )
    trace.add_argument("spans", help="spans JSONL file (serve --trace-out)")
    trace.add_argument(
        "--trace-id", default=None, help="only this trace (default: all)"
    )

    export = sub.add_parser(
        "export",
        help="convert a spans JSONL file to Chrome trace_event JSON, or a "
        "telemetry snapshot to Prometheus text format",
    )
    export.add_argument(
        "--spans", default=None, help="spans JSONL file to convert"
    )
    export.add_argument(
        "--telemetry",
        default=None,
        help="telemetry snapshot JSON (serve --json) to convert",
    )
    export.add_argument(
        "--format",
        choices=["chrome", "prometheus"],
        default=None,
        help="output format (default: chrome for --spans, prometheus "
        "for --telemetry)",
    )
    export.add_argument(
        "--out", default=None, help="output path (default: stdout)"
    )
    return parser


def _print_span_tree(spans, trace_id: str) -> None:
    from repro.obs.trace import iter_children

    selected = [s for s in spans if s.trace_id == trace_id]
    by_id = {s.span_id: s for s in selected}

    def render(span, depth: int) -> None:
        attrs = " ".join(f"{k}={v}" for k, v in sorted(span.attrs.items()))
        print(
            f"  {'  ' * depth}{span.name}  {span.duration_s * 1e3:.3f}ms"
            + (f"  [{attrs}]" if attrs else "")
        )
        for child in sorted(
            iter_children(selected, span.span_id), key=lambda s: s.start_s
        ):
            render(child, depth + 1)

    print(f"trace {trace_id} ({len(selected)} span(s)):")
    roots = [
        s for s in selected
        if s.parent_id is None or s.parent_id not in by_id
    ]
    for root in sorted(roots, key=lambda s: s.start_s):
        render(root, 0)


def _obs_main(argv: list[str]) -> int:
    import json
    from pathlib import Path

    parser = build_obs_parser()
    args = parser.parse_args(argv)

    if args.command == "report":
        from repro.obs.bench import read_bench_report

        paths = sorted(Path(args.dir).glob("BENCH_*.json"))
        if not paths:
            print(f"(no BENCH_*.json envelopes under {args.dir})")
            return 0
        envelopes = []
        for path in paths:
            try:
                envelopes.append(read_bench_report(path))
            except (ValueError, json.JSONDecodeError) as exc:
                print(f"skipping {path}: {exc}", file=sys.stderr)
        if args.json:
            print(json.dumps(envelopes, indent=2, sort_keys=True))
        else:
            for env in envelopes:
                created = time.strftime(
                    "%Y-%m-%d %H:%M:%S", time.localtime(env["created"])
                )
                keys = ", ".join(sorted(env["metrics"])[:8])
                print(f"  {env['bench']:<16} {created}  metrics: {keys}")
        return 0

    if args.command == "trace":
        from repro.obs import read_spans_jsonl

        spans = read_spans_jsonl(args.spans)
        trace_ids = (
            [args.trace_id]
            if args.trace_id
            else sorted({s.trace_id for s in spans})
        )
        for trace_id in trace_ids:
            _print_span_tree(spans, trace_id)
        return 0

    if args.command == "export":
        if (args.spans is None) == (args.telemetry is None):
            parser.error("pass exactly one of --spans or --telemetry")
        if args.spans is not None:
            fmt = args.format or "chrome"
            if fmt != "chrome":
                parser.error("--spans converts to --format chrome")
            from repro.obs import chrome_trace, read_spans_jsonl

            text = json.dumps(chrome_trace(read_spans_jsonl(args.spans)))
        else:
            fmt = args.format or "prometheus"
            if fmt != "prometheus":
                parser.error("--telemetry converts to --format prometheus")
            from repro.obs import prometheus_text

            text = prometheus_text(json.loads(Path(args.telemetry).read_text()))
        if args.out:
            out = Path(args.out)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(text if text.endswith("\n") else text + "\n")
            print(f"wrote {out}")
        else:
            print(text)
        return 0

    raise AssertionError(f"unhandled obs command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # Only the first token is the top-level parser's: --version, --help,
    # a usage error, or the group whose own parser takes the rest.
    group = build_parser().parse_args(argv[:1]).group
    groups = {"store": _store_main, "fleet": _fleet_main, "serve": _serve_main, "obs": _obs_main}
    return groups[group](argv[1:])


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
