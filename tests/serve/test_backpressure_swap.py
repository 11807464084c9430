"""Saturation, drain, and hot-swap semantics — the serve/runtime interplay.

Covers the serving runtime's three hard guarantees:

* queue saturation rejects with the typed
  :class:`~repro.serve.batching.Backpressure` error (admission control,
  not blocking);
* ``shutdown(drain=True)`` completes every admitted request;
* a hot swap mid-stream never yields a torn plan — every solution is
  byte-identical to one produced by a *whole* plan (fallback or tuned),
  verified by golden-hashing solutions against offline solves.
"""

import concurrent.futures
import hashlib
import threading

import numpy as np
import pytest

from repro.core import poisson_problem, solve
from repro.serve import Backpressure, SolveServer
from repro.store.trialdb import TrialDB

LEVEL = 3
N = 2**LEVEL + 1


def make_server(**overrides):
    options = dict(
        machine="intel",
        store=TrialDB(":memory:"),
        workers=1,
        queue_size=4,
        batch_size=2,
        instances=1,
        seed=3,
    )
    options.update(overrides)
    return SolveServer(**options)


def gate_cache(server):
    """Block the worker inside its next cache access until released."""
    gate = threading.Event()
    entered = threading.Event()
    original = server.cache.get_or_fallback

    def gated(profile, key, count=1):
        entered.set()
        gate.wait(timeout=30)
        return original(profile, key, count)

    server.cache.get_or_fallback = gated
    return gate, entered


def solution_hash(x) -> str:
    return hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()


class TestBackpressure:
    def test_saturated_queue_rejects_with_typed_error(self):
        server = make_server(workers=1, queue_size=2)
        gate, entered = gate_cache(server)
        try:
            held = [server.submit(poisson_problem("unbiased", n=N, seed=0), 1e5)]
            entered.wait(timeout=10)  # the worker holds request 0
            held += [
                server.submit(poisson_problem("unbiased", n=N, seed=i), 1e5)
                for i in (1, 2)  # fill the 2-slot queue
            ]
            with pytest.raises(Backpressure) as err:
                server.submit(poisson_problem("unbiased", n=N, seed=99), 1e5)
            assert err.value.capacity == 2
            assert server.stats()["counters"]["requests_rejected"] == 1
        finally:
            gate.set()
            server.shutdown(drain=True)
        # Every admitted request still completed.
        assert all(f.result(timeout=60) is not None for f in held)

    def test_rejection_does_not_poison_the_server(self):
        server = make_server(workers=1, queue_size=1)
        gate, entered = gate_cache(server)
        try:
            first = server.submit(poisson_problem("unbiased", n=N, seed=0), 1e5)
            entered.wait(timeout=10)
            blocked = server.submit(poisson_problem("unbiased", n=N, seed=1), 1e5)
            with pytest.raises(Backpressure):
                server.submit(poisson_problem("unbiased", n=N, seed=2), 1e5)
        finally:
            gate.set()
        assert first.result(timeout=60) and blocked.result(timeout=60)
        # After the backlog clears, new submissions are admitted again.
        retry = server.submit(poisson_problem("unbiased", n=N, seed=2), 1e5)
        assert retry.result(timeout=60).solution.shape == (N, N)
        server.shutdown(drain=True)


class TestDrain:
    def test_shutdown_drains_in_flight_requests(self):
        server = make_server(workers=2, queue_size=16)
        gate, entered = gate_cache(server)
        futures = [
            server.submit(poisson_problem("unbiased", n=N, seed=i), 1e5)
            for i in range(8)
        ]
        entered.wait(timeout=10)

        releaser = threading.Timer(0.05, gate.set)
        releaser.start()
        try:
            server.shutdown(drain=True, timeout=60)
        finally:
            releaser.cancel()
            gate.set()
        assert all(f.done() for f in futures)
        results = [f.result(timeout=1) for f in futures]
        assert all(r.solution.shape == (N, N) for r in results)
        assert server.stats()["counters"]["requests_completed"] == 8

    def test_shutdown_without_drain_cancels_queued(self):
        server = make_server(workers=1, queue_size=16)
        gate, entered = gate_cache(server)
        futures = [
            server.submit(poisson_problem("unbiased", n=N, seed=i), 1e5)
            for i in range(6)
        ]
        entered.wait(timeout=10)
        releaser = threading.Timer(0.05, gate.set)
        releaser.start()
        try:
            server.shutdown(drain=False)
        finally:
            releaser.cancel()
            gate.set()
        concurrent.futures.wait(futures, timeout=30)
        done = sum(1 for f in futures if f.done() and not f.cancelled())
        cancelled = sum(1 for f in futures if f.cancelled())
        # Whatever was still queued was cancelled, not silently dropped.
        assert cancelled >= 1
        assert done + cancelled == len(futures)


class TestHotSwapNeverTearsPlans:
    def test_mid_stream_swap_golden_hashes(self):
        """Stream requests across a background swap; every solution must
        match one of the two whole plans, never a mixture."""
        db = TrialDB(":memory:")
        problem = poisson_problem("unbiased", n=N, seed=21)
        with make_server(store=db, workers=2, queue_size=64, batch_size=4) as server:
            futures = [server.submit(problem, 1e5) for _ in range(20)]
            # Ensure the fallback actually served (scheduling the
            # background tune), then let the swap land mid-stream.
            assert futures[0].result(timeout=60).plan_source == "fallback"
            assert server.wait_for_swaps(timeout=60)
            futures += [server.submit(problem, 1e5) for _ in range(40)]
            results = [f.result(timeout=60) for f in futures]
            sources = {r.plan_source for r in results}
            assert "fallback" in sources  # early requests rode the heuristic
            assert "swapped" in sources or "exact" in sources

            # Golden hashes: offline solves with each whole plan.
            key = server.cache.key_for(
                server.profile, problem.operator, LEVEL, "unbiased"
            )
            tuned_entry = server.cache.lookup(key)
        from repro.serve.cache import PlanCache

        fallback_cache = PlanCache(
            server.registry, instances=1, seed=3, telemetry=None
        )
        fallback_plan = fallback_cache._fallback_plan(server.profile, key)
        golden = {
            "fallback": solution_hash(solve(fallback_plan, problem, 1e5)[0]),
            "tuned": solution_hash(solve(tuned_entry.plan, problem, 1e5)[0]),
        }
        for result in results:
            digest = solution_hash(result.solution)
            expected = "fallback" if result.plan_source == "fallback" else "tuned"
            assert digest == golden[expected], (
                f"torn plan: a {result.plan_source} response matched neither "
                f"whole-plan golden hash"
            )

    def test_mid_stream_swap_preserves_3d_solution_hashes(self):
        """The stale-while-tune cycle on a 3-D workload class: every
        streamed solution byte-matches a whole-plan offline solve."""
        db = TrialDB(":memory:")
        problem = poisson_problem("unbiased", n=N, seed=33, operator="poisson3d")
        with make_server(store=db, workers=2, queue_size=64, batch_size=4) as server:
            futures = [server.submit(problem, 1e5) for _ in range(10)]
            assert futures[0].result(timeout=60).plan_source == "fallback"
            assert server.wait_for_swaps(timeout=120)
            futures += [server.submit(problem, 1e5) for _ in range(10)]
            results = [f.result(timeout=60) for f in futures]
            sources = {r.plan_source for r in results}
            assert "fallback" in sources
            assert "swapped" in sources or "exact" in sources
            key = server.cache.key_for(
                server.profile, problem.operator, LEVEL, "unbiased"
            )
            assert key.ndim == 3
            tuned_entry = server.cache.lookup(key)
        from repro.serve.cache import PlanCache

        fallback_cache = PlanCache(server.registry, instances=1, seed=3, telemetry=None)
        fallback_plan = fallback_cache._fallback_plan(server.profile, key)
        assert fallback_plan.ndim == 3 and tuned_entry.plan.ndim == 3
        golden = {
            "fallback": solution_hash(solve(fallback_plan, problem, 1e5)[0]),
            "tuned": solution_hash(solve(tuned_entry.plan, problem, 1e5)[0]),
        }
        for result in results:
            digest = solution_hash(result.solution)
            expected = "fallback" if result.plan_source == "fallback" else "tuned"
            assert digest == golden[expected], (
                f"torn plan: a {result.plan_source} 3-D response matched "
                f"neither whole-plan golden hash"
            )
