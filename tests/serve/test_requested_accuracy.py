"""The solve server serves every request at the accuracy it asked for.

A tuned plan is the fastest one that *meets* the requested accuracy, so
the server runs each request's plan at the rung its target names, and
no amount of latency swaps a warm plan for a cheaper, less accurate one.
"""

import numpy as np
import pytest

from repro.core import poisson_problem, solve
from repro.obs.trace import Tracer
from repro.serve import SolveServer
from repro.store.trialdb import TrialDB
from repro.tuner.executor import PlanExecutor
from repro.tuner.plan import DEFAULT_ACCURACIES
from repro.util.clock import ManualClock

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


@pytest.mark.parametrize("target", DEFAULT_ACCURACIES)
def test_each_rung_is_served_as_asked(target):
    tracer = Tracer()
    with make_server(tracer=tracer) as server:
        entry = server.warm("unbiased", LEVEL)
        problem = poisson_problem("unbiased", n=N, seed=5)
        result = server.solve(problem, target)
    # At this level several rungs solve byte-identically, so the rung
    # the solve ran is read off its span as well.
    (span,) = [s for s in tracer.spans() if s.name == "serve.solve"]
    assert span.attrs["acc_index"] == DEFAULT_ACCURACIES.index(target)
    offline, _ = solve(entry.plan, problem, target)
    np.testing.assert_array_equal(result.solution, offline)


def test_slow_solves_never_swap_a_warm_plan(monkeypatch):
    clock = ManualClock()
    original = PlanExecutor.run_v

    def slow_run_v(self, *args, **kwargs):
        clock.advance(10.0)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(PlanExecutor, "run_v", slow_run_v)
    problem = poisson_problem("unbiased", n=N, seed=5)
    with make_server(clock=clock) as server:
        entry = server.warm("unbiased", LEVEL)
        results = [server.solve(problem, 1e5, timeout=60) for _ in range(6)]
        snap = server.stats()
    assert min(r.latency_s for r in results) >= 10.0
    assert {(r.plan_source, r.generation) for r in results} == {
        ("tuned", entry.generation)
    }
    assert snap["counters"].get("plan_swaps", 0) == 0
    assert snap["swap_events"] == []
    offline, _ = solve(entry.plan, problem, 1e5)
    for result in results:
        np.testing.assert_array_equal(result.solution, offline)
