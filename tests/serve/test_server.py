"""End-to-end tests for the solve server."""

import json

import numpy as np
import pytest

from repro.core import open_server, poisson_problem, solve
from repro.serve import SolveServer
from repro.store.trialdb import TrialDB

LEVEL = 3
N = 2**LEVEL + 1


def make_server(**overrides):
    options = dict(
        machine="intel",
        store=TrialDB(":memory:"),
        workers=2,
        queue_size=32,
        batch_size=4,
        instances=1,
        seed=3,
    )
    options.update(overrides)
    return SolveServer(**options)


class TestColdPath:
    def test_first_response_is_fallback_then_swaps(self):
        with make_server() as server:
            problem = poisson_problem("unbiased", n=N, seed=7)
            first = server.solve(problem, 1e5)
            assert first.plan_source == "fallback"
            assert first.stale
            assert first.solution.shape == (N, N)
            assert server.wait_for_swaps(timeout=60)
            second = server.solve(problem, 1e5)
            assert second.plan_source == "swapped"
            assert not second.stale
            assert second.generation == first.generation + 1
            snap = server.stats()
            assert snap["counters"]["plan_swaps"] == 1
            assert snap["counters"]["fallback_served"] >= 1
            (event,) = snap["swap_events"]
            assert event["old_source"] == "fallback"
            assert event["new_source"] == "swapped"

    def test_swap_provenance_persisted_in_trial_log(self):
        db = TrialDB(":memory:")
        with make_server(store=db) as server:
            problem = poisson_problem("unbiased", n=N, seed=7)
            server.solve(problem, 1e5)
            assert server.wait_for_swaps(timeout=60)
        (trial,) = db.trials()
        provenance = json.loads(trial.plan_json)["metadata"]["serve_swap"]
        assert provenance["reason"] == "stale-while-tune"
        assert provenance["fallback_generation"] == 0
        assert provenance["stale_served_at_tune"] >= 1
        assert "unbiased" in provenance["key"]

    def test_fallback_solution_meets_target_accuracy(self):
        """The heuristic stand-in is a real trained plan, not a guess."""
        from repro.accuracy.judge import AccuracyJudge
        from repro.accuracy.reference import reference_solution

        with make_server() as server:
            problem = poisson_problem("unbiased", n=N, seed=11)
            result = server.solve(problem, 1e5)
            assert result.plan_source == "fallback"
        judge = AccuracyJudge(problem.initial_guess(), reference_solution(problem))
        # Trained on 1 instance and judged on another draw, so allow slack;
        # anything >> 1 confirms the plan actually solves.
        assert judge.accuracy_of(result.solution) > 1e2


class TestWarmPath:
    def test_warmed_key_never_serves_fallback(self):
        with make_server() as server:
            entry = server.warm("unbiased", LEVEL)
            assert entry.source == "tuned"
            result = server.solve(poisson_problem("unbiased", n=N, seed=5), 1e5)
            assert result.plan_source == "tuned"
            assert not result.stale
            assert server.stats()["counters"].get("fallback_builds", 0) == 0

    def test_warm_many(self):
        with make_server() as server:
            entries = server.warm_many([("unbiased", LEVEL, None),
                                        ("biased", LEVEL, None)])
            assert [e.source for e in entries] == ["tuned", "tuned"]
            assert len(server.cache) == 2

    def test_matches_offline_solve(self):
        """Served solutions are byte-identical to core.solve with the plan."""
        with make_server() as server:
            entry = server.warm("unbiased", LEVEL)
            problem = poisson_problem("unbiased", n=N, seed=5)
            result = server.solve(problem, 1e5)
        offline, _ = solve(entry.plan, problem, 1e5)
        np.testing.assert_array_equal(result.solution, offline)


class TestBatching:
    def test_burst_of_same_key_requests_batches(self):
        with make_server(workers=1, batch_size=8) as server:
            server.warm("unbiased", LEVEL)
            futures = [
                server.submit(poisson_problem("unbiased", n=N, seed=i), 1e5)
                for i in range(12)
            ]
            results = [f.result(timeout=60) for f in futures]
            assert all(r.plan_source == "tuned" for r in results)
            assert max(r.batch_size for r in results) > 1
            counters = server.stats()["counters"]
            assert counters["batches"] < counters["requests_completed"]
            # Hit counters are per-request even when lookups batch.
            assert counters["cache_hits"] == counters["requests_completed"] == 12

    def test_mixed_keys_bucket_separately(self):
        with make_server(workers=1, batch_size=8) as server:
            server.warm("unbiased", LEVEL)
            server.warm("biased", LEVEL)
            futures = [
                server.submit(
                    poisson_problem(dist, n=N, seed=i), 1e5
                )
                for i, dist in enumerate(["unbiased", "biased"] * 4)
            ]
            for f in futures:
                f.result(timeout=60)
            assert len(server.cache) == 2


class TestRequestValidation:
    def test_unknown_label_raises_at_submit(self):
        from repro.workloads.problem import PoissonProblem

        problem = PoissonProblem(b=np.zeros((N, N)), boundary=np.zeros(4 * N - 4))
        with make_server() as server:
            with pytest.raises(ValueError, match="distribution"):
                server.submit(problem, 1e5)

    def test_auto_distribution_classifies(self):
        from repro.workloads.problem import PoissonProblem

        rng = np.random.default_rng(0)
        scale, shift = float(2**32), float(2**31)
        biased = PoissonProblem(
            b=rng.uniform(-scale, scale, (N, N)) + shift,
            boundary=rng.uniform(-scale, scale, 4 * N - 4) + shift,
        )
        with make_server() as server:
            server.warm("biased", LEVEL)
            result = server.solve(biased, 1e5, distribution="auto")
            assert result.plan_source == "tuned"  # routed to the biased plan
            (key,) = server.cache.keys()
            assert key.distribution == "biased"

    def test_target_above_ladder_fails_that_request_only(self):
        with make_server() as server:
            server.warm("unbiased", LEVEL)
            with pytest.raises(ValueError, match="ladder"):
                server.submit(poisson_problem("unbiased", n=N, seed=1), 1e99)
            good = server.submit(poisson_problem("unbiased", n=N, seed=2), 1e5)
            assert good.result(timeout=60).solution.shape == (N, N)

    @pytest.mark.parametrize(
        "target,match",
        [(float("nan"), "finite"), (float("inf"), "finite"), (0.0, "> 0"),
         (-1e5, "> 0"), (1e9 * 1.5, "ladder")],
    )
    def test_unservable_target_raises_before_any_tune(self, target, match):
        with make_server() as server:
            with pytest.raises(ValueError, match=match):
                server.submit(poisson_problem("unbiased", n=N, seed=1), target)
            assert server.wait_for_swaps(timeout=60)
            counters = server.stats()["counters"]
            assert len(server.cache) == 0
            assert counters.get("requests_submitted", 0) == 0
            assert counters.get("fallback_served", 0) == 0

    def test_top_rung_is_servable(self):
        with make_server() as server:
            result = server.solve(poisson_problem("unbiased", n=N, seed=1), 1e9)
            assert result.solution.shape == (N, N)

    @pytest.mark.parametrize("field", ["b", "boundary"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_data_raises_before_any_tune(self, field, value):
        from dataclasses import replace

        clean = poisson_problem("unbiased", n=N, seed=1)
        data = getattr(clean, field).copy()
        data.flat[1] = value
        problem = replace(clean, **{field: data})
        with make_server() as server:
            with pytest.raises(ValueError, match=f"{field} has non-finite"):
                server.submit(problem, 1e5)
            assert len(server.cache) == 0
            assert server.stats()["counters"].get("requests_submitted", 0) == 0


class TestBackgroundTuneFailures:
    def test_failing_tune_is_recorded_and_fallback_keeps_serving(self, monkeypatch):
        import repro.tuner.spec as spec_module
        from repro.util.errors import MESSAGE_LIMIT

        def broken_tune(*args, **kwargs):
            raise RuntimeError("tuner exploded " + "x" * 2 * MESSAGE_LIMIT)

        monkeypatch.setattr(spec_module, "tune", broken_tune)
        with make_server(workers=1) as server:
            problem = poisson_problem("unbiased", n=N, seed=7)
            first = server.solve(problem, 1e5, timeout=60)
            assert server.wait_for_swaps(timeout=60)
            (failure,) = server.tune_failures()
            assert failure["type"] == "RuntimeError"
            assert failure["message"].startswith("tuner exploded")
            assert len(failure["message"]) == MESSAGE_LIMIT + 3
            assert failure["key"] == server.cache.keys()[0].label()
            assert failure["trace_id"] is None
            assert server.stats()["counters"]["tune_errors"] == 1
            second = server.solve(problem, 1e5, timeout=60)
            assert server.wait_for_swaps(timeout=60)
        assert first.plan_source == second.plan_source == "fallback"
        assert second.stale
        assert len(server.tune_failures()) == 2

    def test_traced_failure_marks_the_tune_span(self, monkeypatch):
        import repro.tuner.spec as spec_module
        from repro.obs.trace import Tracer

        def broken_tune(*args, **kwargs):
            raise KeyError("plan")

        monkeypatch.setattr(spec_module, "tune", broken_tune)
        tracer = Tracer()
        with make_server(workers=1, tracer=tracer) as server:
            result = server.solve(poisson_problem("unbiased", n=N, seed=7), 1e5, timeout=60)
            assert server.wait_for_swaps(timeout=60)
            (failure,) = server.tune_failures()
        assert failure["trace_id"] == result.trace_id is not None
        (span,) = [s for s in tracer.spans() if s.name == "serve.background_tune"]
        assert span.attrs["error"] == failure["type"] == "KeyError"
        assert span.attrs["error_message"] == failure["message"]
        assert span.attrs["key"] == failure["key"]
        assert span.attrs["request_trace_id"] == failure["trace_id"]

    def test_failure_list_is_bounded(self, monkeypatch):
        import repro.tuner.spec as spec_module
        from repro.serve.server import TUNE_FAILURE_LIMIT

        def broken_tune(*args, **kwargs):
            raise ValueError("no")

        monkeypatch.setattr(spec_module, "tune", broken_tune)
        with make_server(workers=1) as server:
            problem = poisson_problem("unbiased", n=N, seed=7)
            for _ in range(TUNE_FAILURE_LIMIT + 2):
                server.solve(problem, 1e5, timeout=60)
                assert server.wait_for_swaps(timeout=60)
            assert len(server.tune_failures()) == TUNE_FAILURE_LIMIT
            assert server.stats()["counters"]["tune_errors"] == TUNE_FAILURE_LIMIT + 2


class TestLifecycle:
    def test_submit_after_shutdown_raises(self):
        server = make_server()
        server.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            server.submit(poisson_problem("unbiased", n=N, seed=1), 1e5)

    def test_shutdown_is_idempotent(self):
        server = make_server()
        server.shutdown()
        server.shutdown()

    def test_open_server_facade(self):
        with open_server(
            machine="intel", store=TrialDB(":memory:"), instances=1, seed=3
        ) as server:
            assert isinstance(server, SolveServer)
            server.warm("unbiased", LEVEL)
            result = server.solve(poisson_problem("unbiased", n=N, seed=1), 1e5)
            assert result.plan_source == "tuned"

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError, match="workers"):
            make_server(workers=0)


class TestLoadGenerator:
    def test_run_load_report(self):
        from repro.serve import run_load

        with make_server() as server:
            server.warm("unbiased", LEVEL)
            report = run_load(
                server, [("unbiased", LEVEL, None)], requests=10, clients=2
            )
        assert report["completed"] == 10
        assert report["throughput_rps"] > 0
        assert report["p50_s"] <= report["p95_s"] <= report["p99_s"] <= report["max_s"]
        assert report["sources"] == {"tuned": 10}

    def test_run_load_validates(self):
        from repro.serve import run_load

        with make_server() as server:
            with pytest.raises(ValueError):
                run_load(server, [("unbiased", LEVEL, None)], requests=0)
            with pytest.raises(ValueError):
                run_load(server, [("unbiased", LEVEL, None)], clients=0)
