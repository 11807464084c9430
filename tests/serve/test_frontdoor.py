"""The sharded front door: end-to-end, crash recovery, scaling.

These tests spawn real worker processes.  Grids stay tiny (level 3)
because process spawn + import dominates the wall clock, not solves.

The crash test is the serving twin of the fleet's SIGKILL-mid-lease
test: one shard worker is SIGSTOPped (so requests provably queue on
it), then SIGKILLed mid-stream; the front door must re-route to a
respawned worker with **no request lost and none answered twice**, and
the telemetry must record the restart.  Payloads survive because they
live in the front door's shared memory, not in the dead process.
"""

import os
import signal

import numpy as np
import pytest

from repro.core import open_server, poisson_problem
from repro.serve import Backpressure, FrontDoor, SolveServer
from repro.store.trialdb import TrialDB
from repro.util.validation import size_of_level
from repro.workloads.distributions import make_problem

LEVEL = 3
N = size_of_level(LEVEL)


def _problems(count: int, dist: str = "unbiased", operator=None):
    return [
        make_problem(dist, N, 11, index=i, operator=operator)
        for i in range(count)
    ]


class TestEndToEnd:
    def test_sharded_solutions_match_single_process_golden(self, tmp_path):
        """The zero-copy transport is bit-transparent: a request routed
        through shared memory and a worker process must produce the
        exact bytes the in-process server produces from the same plan."""
        store = str(tmp_path / "store.sqlite")
        problems_2d = _problems(3)
        problems_3d = _problems(2, operator="poisson3d")

        single = SolveServer(machine="intel", store=TrialDB(store), instances=1, seed=3)
        try:
            single.warm("unbiased", LEVEL)
            single.warm("unbiased", LEVEL, "poisson3d")
            golden = [single.solve(p, 1e5).solution for p in problems_2d]
            golden += [single.solve(p, 1e5).solution for p in problems_3d]
        finally:
            single.shutdown(drain=True)

        with FrontDoor(
            shards=2, store_path=store, workers=1, instances=1, seed=3
        ) as door:
            futures = [door.submit(p, 1e5) for p in problems_2d + problems_3d]
            results = [f.result(timeout=120) for f in futures]
        for result, expected in zip(results, golden):
            assert np.array_equal(result.solution, expected)
        # Plans came from the shared store, not a re-tune.
        assert all(r.plan_source in ("exact", "stored", "tuned") for r in results)

    def test_routing_is_sticky_and_classes_spread(self, tmp_path):
        store = str(tmp_path / "store.sqlite")
        with FrontDoor(
            shards=2, store_path=store, workers=1, instances=1, seed=3
        ) as door:
            two_d = [
                door.submit(p, 1e5).result(timeout=120) for p in _problems(3)
            ]
            three_d = [
                door.submit(p, 1e5).result(timeout=120)
                for p in _problems(2, operator="poisson3d")
            ]
            # Least-loaded sticky routing: the first class pins shard 0,
            # the second (different key) pins shard 1; neither moves.
            assert {r.shard for r in two_d} == {0}
            assert {r.shard for r in three_d} == {1}

    def test_open_server_facade_returns_front_door(self, tmp_path):
        door = open_server(
            store=str(tmp_path / "s.sqlite"),
            shards=2,
            workers=1,
            instances=1,
            seed=3,
        )
        assert isinstance(door, FrontDoor)
        with door:
            result = door.solve(poisson_problem("unbiased", n=N, seed=1), 1e5)
            assert result.solution.shape == (N, N)

    def test_open_server_rejects_non_path_store_for_shards(self):
        with pytest.raises(TypeError, match="path"):
            open_server(store=TrialDB(":memory:"), shards=2)


class TestCrashRecovery:
    def test_sigkill_mid_stream_no_loss_no_duplicates(self, tmp_path):
        store = str(tmp_path / "store.sqlite")
        problems = _problems(8)

        single = SolveServer(machine="intel", store=TrialDB(store), instances=1, seed=3)
        try:
            single.warm("unbiased", LEVEL)
            golden = [single.solve(p, 1e5).solution for p in problems]
        finally:
            single.shutdown(drain=True)

        with FrontDoor(
            shards=2, store_path=store, workers=1, instances=1, seed=3
        ) as door:
            # Pin the class to its shard and find the victim process.
            first = door.submit(problems[0], 1e5).result(timeout=120)
            victim_index = first.shard
            victim = door._workers[victim_index].process
            assert victim.pid is not None

            # Freeze the victim so the stream provably queues on it...
            os.kill(victim.pid, signal.SIGSTOP)
            futures = [door.submit(p, 1e5) for p in problems[1:]]
            # ...then kill it mid-stream.
            os.kill(victim.pid, signal.SIGKILL)

            results = [f.result(timeout=180) for f in futures]
            counters = door.telemetry.snapshot()["counters"]

        # No request lost: every future resolved, with correct bytes.
        assert np.array_equal(first.solution, golden[0])
        for result, expected in zip(results, golden[1:]):
            assert np.array_equal(result.solution, expected)
        # Re-routed: the replacement worker (a fresh index) served them.
        assert all(r.shard != victim_index for r in results)
        # None answered twice, and telemetry recorded the restart.
        assert counters.get("duplicate_responses", 0) == 0
        assert counters["requests_completed"] == len(problems)
        assert counters["worker_crashes"] == 1
        assert counters["worker_restarts"] == 1
        assert counters["requests_resubmitted"] == len(problems) - 1

    def test_crash_streak_guard_fails_pending_instead_of_looping(self, tmp_path):
        """A worker that dies repeatedly must not respawn forever."""
        store = str(tmp_path / "store.sqlite")
        with FrontDoor(
            shards=1, store_path=store, workers=1, instances=1, seed=3
        ) as door:
            door.max_crash_streak = 0  # first crash already exceeds it
            # Freeze the worker first so the request cannot be answered
            # before the kill lands.
            victim = door._workers[0].process
            os.kill(victim.pid, signal.SIGSTOP)
            future = door.submit(poisson_problem("unbiased", n=N, seed=1), 1e5)
            os.kill(victim.pid, signal.SIGKILL)
            with pytest.raises(RuntimeError, match="crashed"):
                future.result(timeout=60)
            assert door.n_shards == 0  # not respawned


class TestAdmissionAndLifecycle:
    def test_backpressure_when_slot_pool_is_exhausted(self, tmp_path):
        store = str(tmp_path / "store.sqlite")
        with FrontDoor(
            shards=1, store_path=store, workers=1, instances=1, seed=3,
            pool_slots=1,
        ) as door:
            worker = door._workers[0].process
            problem = poisson_problem("unbiased", n=N, seed=1)
            # Freeze the worker: the first request parks in the only slot.
            os.kill(worker.pid, signal.SIGSTOP)
            try:
                future = door.submit(problem, 1e5)
                with pytest.raises(Backpressure):
                    door.submit(problem, 1e5)
            finally:
                os.kill(worker.pid, signal.SIGCONT)
            future.result(timeout=120)
            # The slot came back after completion.
            result = door.solve(problem, 1e5)
            assert result.solution.shape == (N, N)
            assert door.telemetry.counter("requests_rejected") == 1

    def test_submit_after_shutdown_raises(self, tmp_path):
        door = FrontDoor(
            shards=1, store_path=str(tmp_path / "s.sqlite"), workers=1,
            instances=1, seed=3,
        )
        door.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            door.submit(poisson_problem("unbiased", n=N, seed=1), 1e5)
        door.shutdown()  # idempotent

    def test_invalid_request_fails_its_future_not_submit(self, tmp_path):
        """The shard's server validates: the front door's submit accepts
        the request, and its future fails with the shard's ValueError."""
        with FrontDoor(
            shards=1, store_path=str(tmp_path / "s.sqlite"), workers=1,
            instances=1, seed=3,
        ) as door:
            bad = door.submit(poisson_problem("unbiased", n=N, seed=1), 1e99)
            with pytest.raises(RuntimeError, match="^ValueError: .*ladder"):
                bad.result(timeout=120)
            good = door.solve(poisson_problem("unbiased", n=N, seed=2), 1e5)
            assert good.solution.shape == (N, N)

    def test_resize_grows_shrinks_and_keeps_serving(self, tmp_path):
        store = str(tmp_path / "store.sqlite")
        with FrontDoor(
            shards=1, store_path=store, workers=1, instances=1, seed=3
        ) as door:
            problem = poisson_problem("unbiased", n=N, seed=1)
            before = door.solve(problem, 1e5)
            assert door.resize(2) == 2
            assert door.n_shards == 2
            assert door.resize(1) == 1
            # The class re-routes to a surviving worker and still serves.
            after = door.solve(problem, 1e5)
            assert np.array_equal(after.solution, before.solution)

    def test_stats_aggregates_all_shards(self, tmp_path):
        with FrontDoor(
            shards=2, store_path=str(tmp_path / "s.sqlite"), workers=1,
            instances=1, seed=3,
        ) as door:
            door.solve(poisson_problem("unbiased", n=N, seed=1), 1e5)
            snapshot = door.stats()
            assert set(snapshot["shards"]) == {"0", "1"}
            assert snapshot["frontdoor"]["counters"]["requests_completed"] == 1
            served = sum(
                shard.get("counters", {}).get("requests_completed", 0)
                for shard in snapshot["shards"].values()
            )
            assert served == 1
            assert door.wait_for_swaps(timeout=60.0)
