"""End-to-end tracing through the serving tier.

The acceptance contract of the observability PR, pinned as tests: one
request through a 2-shard :class:`FrontDoor` yields a **single
correlated span tree** — frontdoor.request -> serve.request ->
serve.batch (with the plan-cache decision annotation) -> serve.solve ->
mg.level -> op.* with backend labels — exportable as valid Chrome
``trace_event`` JSON; the loadgen report carries trace ids; a
stale-while-tune plan swap stamps the triggering request's trace id
into its ``serve_swap`` trial-row plan; and turning tracing on never
changes the telemetry snapshot's exported shape.

Grids stay tiny (level 3) for the same reason as the front-door tests:
process spawn + import dominates, not solves.  ``op_span_min_points=0``
lifts the executor's op-span floor so even these 9x9 grids record per-op
spans.
"""

import json

from repro.core import poisson_problem
from repro.obs.export import chrome_trace
from repro.obs.trace import Tracer
from repro.serve import FrontDoor, SolveServer
from repro.serve.loadgen import run_load
from repro.store.trialdb import TrialDB
from repro.util.validation import size_of_level
from repro.workloads.distributions import make_problem

LEVEL = 3
N = size_of_level(LEVEL)


def assert_single_tree(spans, root_name):
    """One trace id, one root (named ``root_name``), every parent link
    resolving inside the collected set."""
    assert spans, "trace recorded no spans"
    assert len({s.trace_id for s in spans}) == 1
    roots = [s for s in spans if s.parent_id is None]
    assert [s.name for s in roots] == [root_name]
    ids = {s.span_id for s in spans}
    for span in spans:
        if span.parent_id is not None:
            assert span.parent_id in ids, f"orphan span {span.name}"


class TestSingleServerTrace:
    def test_request_yields_one_correlated_tree(self):
        tracer = Tracer()
        server = SolveServer(
            machine="intel", store=TrialDB(":memory:"), workers=1,
            instances=1, seed=3, tracer=tracer, op_span_min_points=0,
        )
        try:
            server.warm("unbiased", LEVEL)
            result = server.solve(poisson_problem("unbiased", n=N, seed=1), 1e5, timeout=60)
        finally:
            server.shutdown(drain=True)
        assert result.trace_id is not None
        spans = tracer.for_trace(result.trace_id)
        assert_single_tree(spans, "serve.request")
        names = {s.name for s in spans}
        assert {"serve.batch", "plan_cache.decision", "serve.solve", "mg.level"} <= names
        ops = [s for s in spans if s.name.startswith("op.")]
        assert ops, "no per-op spans despite a zero floor"
        for span in ops:
            assert "backend" in span.attrs and "level" in span.attrs


    def test_cold_key_tune_is_its_own_linked_trace(self):
        """A cold key's request trace stays one tree after its background
        tune finishes; the tune span carries the request's trace id."""
        tracer = Tracer()
        server = SolveServer(
            machine="intel", store=TrialDB(":memory:"), workers=1,
            instances=1, seed=3, tracer=tracer,
        )
        try:
            result = server.solve(poisson_problem("unbiased", n=N, seed=1), 1e5, timeout=60)
            assert server.wait_for_swaps(timeout=120)
        finally:
            server.shutdown(drain=True)
        assert result.plan_source == "fallback"
        assert_single_tree(tracer.for_trace(result.trace_id), "serve.request")
        tunes = [s for s in tracer.spans() if s.name == "serve.background_tune"]
        assert len(tunes) == 1
        assert tunes[0].attrs["request_trace_id"] == result.trace_id
        assert tunes[0].trace_id != result.trace_id
        assert_single_tree(tracer.for_trace(tunes[0].trace_id), "serve.background_tune")


class TestShardedTrace:
    def test_one_request_through_two_shards_exports_as_chrome_trace(self, tmp_path):
        store = str(tmp_path / "store.sqlite")
        with FrontDoor(
            shards=2, store_path=store, workers=1, instances=1, seed=3,
            trace=True, op_span_min_points=0,
        ) as door:
            problem = make_problem("unbiased", N, 11, index=0)
            result = door.submit(problem, 1e5).result(timeout=120)
            assert result.trace_id is not None
            spans = door.tracer.for_trace(result.trace_id)

        # The worker-side tree shipped home and joined the front door's
        # root: every layer of the request path is one correlated tree.
        assert_single_tree(spans, "frontdoor.request")
        names = {s.name for s in spans}
        assert {
            "serve.request", "serve.batch", "plan_cache.decision",
            "serve.solve", "mg.level",
        } <= names
        ops = [s for s in spans if s.name.startswith("op.")]
        assert ops and all("backend" in s.attrs for s in ops)

        # ...and the tree is exportable as valid Chrome trace_event JSON.
        doc = json.loads(json.dumps(chrome_trace(spans)))
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert len(doc["traceEvents"]) == len(spans)
        for event in doc["traceEvents"]:
            assert event["ph"] == "X"
            assert event["args"]["trace_id"] == result.trace_id

    def test_untraced_door_ships_no_spans(self, tmp_path):
        store = str(tmp_path / "store.sqlite")
        with FrontDoor(
            shards=1, store_path=store, workers=1, instances=1, seed=3
        ) as door:
            result = door.solve(make_problem("unbiased", N, 11, index=0), 1e5)
        assert result.trace_id is None


class TestLoadgenReport:
    def test_report_carries_every_trace_id(self):
        tracer = Tracer()
        server = SolveServer(
            machine="intel", store=TrialDB(":memory:"), workers=1,
            instances=1, seed=3, tracer=tracer,
        )
        try:
            server.warm("unbiased", LEVEL)
            report = run_load(
                server, [("unbiased", LEVEL, None)], requests=4, clients=2,
                seed=7,
            )
        finally:
            server.shutdown(drain=True)
        assert len(report["trace_ids"]) == 4
        assert len(set(report["trace_ids"])) == 4
        recorded = tracer.sink.trace_ids()
        for trace_id in report["trace_ids"]:
            assert trace_id in recorded

    def test_untraced_report_has_no_trace_ids_key(self):
        server = SolveServer(
            machine="intel", store=TrialDB(":memory:"), workers=1,
            instances=1, seed=3,
        )
        try:
            server.warm("unbiased", LEVEL)
            report = run_load(
                server, [("unbiased", LEVEL, None)], requests=2, clients=1,
                seed=7,
            )
        finally:
            server.shutdown(drain=True)
        assert "trace_ids" not in report


class TestSwapProvenanceTraceId:
    def test_stale_while_tune_swap_stamps_triggering_trace_id(self):
        """The trial row a cold key's background tune records must name
        the traced request that triggered the tune."""
        db = TrialDB(":memory:")
        server = SolveServer(
            machine="intel", store=db, workers=1, instances=1, seed=3,
            tracer=Tracer(),
        )
        try:
            problem = poisson_problem("unbiased", n=N, seed=1)
            result = server.solve(problem, 1e5, timeout=60)
            assert server.wait_for_swaps(timeout=60)
        finally:
            server.shutdown(drain=True)

        assert result.stale and result.trace_id is not None
        swaps = [
            plan["metadata"]["serve_swap"]
            for plan in (json.loads(r.plan_json) for r in db.trials())
            if "serve_swap" in plan.get("metadata", {})
        ]
        assert len(swaps) == 1
        assert swaps[0]["reason"] == "stale-while-tune"
        assert swaps[0]["trace_id"] == result.trace_id

    def test_untraced_swap_row_names_no_request(self):
        db = TrialDB(":memory:")
        server = SolveServer(
            machine="intel", store=db, workers=1, instances=1, seed=3
        )
        try:
            problem = poisson_problem("unbiased", n=N, seed=1)
            result = server.solve(problem, 1e5, timeout=60)
            assert server.wait_for_swaps(timeout=60)
        finally:
            server.shutdown(drain=True)

        assert result.stale and result.trace_id is None
        (trial,) = db.trials()
        swap = json.loads(trial.plan_json)["metadata"]["serve_swap"]
        assert swap["reason"] == "stale-while-tune"
        assert "trace_id" not in swap


class TestTelemetryShapeUnchanged:
    def test_snapshot_structure_identical_with_tracing_on(self):
        """Tracing must be invisible in the exported telemetry JSON: the
        same workload produces the same key structure either way."""

        def serve_once(tracer):
            server = SolveServer(
                machine="intel", store=TrialDB(":memory:"), workers=1,
                instances=1, seed=3, tracer=tracer,
            )
            try:
                server.warm("unbiased", LEVEL)
                server.solve(poisson_problem("unbiased", n=N, seed=1), 1e5, timeout=60)
                return server.stats()
            finally:
                server.shutdown(drain=True)

        plain, traced = serve_once(None), serve_once(Tracer())
        assert set(plain) == set(traced)
        for section in ("counters", "gauges", "latency"):
            assert set(plain[section]) == set(traced[section])
        assert plain["counters"] == traced["counters"]
        json.dumps(traced)  # still a valid JSON document
