"""Byte pins of the metrics front end's two exports.

A ``ManualClock`` :class:`SolveServer` runs one fixed scenario — warm,
a few requests, one rejected submit and one stale-while-tune swap — and
its ``stats()`` JSON and Prometheus text must come out exactly as
pinned here.  The same holds for the Prometheus text of a two-tier
``FrontDoor.stats()``-shaped dict.  Any change to how counters, gauges,
histograms or swap events are kept or exported shows up as a
diff against these strings.
"""

import json
import threading

import pytest

from repro.core import poisson_problem
from repro.obs.export import prometheus_text
from repro.serve import Backpressure, SolveServer
from repro.serve.telemetry import Telemetry
from repro.store.trialdb import TrialDB
from repro.util.clock import ManualClock

LEVEL = 3
N = 2**LEVEL + 1
#: virtual seconds every plan-cache lookup takes in the scenario
LOOKUP_S = 0.002


def scenario_stats() -> dict:
    """Run the fixed scenario and return the drained server's stats."""
    clock = ManualClock()
    server = SolveServer(
        machine="intel",
        store=TrialDB(":memory:"),
        workers=1,
        queue_size=1,
        batch_size=1,
        instances=1,
        seed=3,
        clock=clock,
    )
    gate = threading.Event()
    gate.set()
    entered = threading.Event()
    original = server.cache.get_or_fallback

    def timed_lookup(profile, key, count=1):
        # Runs on the single worker thread, so the virtual clock moves
        # at the same points of every run.
        entered.set()
        gate.wait(timeout=30)
        clock.advance(LOOKUP_S)
        return original(profile, key, count)

    server.cache.get_or_fallback = timed_lookup
    try:
        server.warm("unbiased", LEVEL)
        for seed in (0, 1):
            problem = poisson_problem("unbiased", n=N, seed=seed)
            assert server.solve(problem, 1e5, timeout=60).plan_source == "tuned"
        gate.clear()
        entered.clear()
        held = server.submit(poisson_problem("unbiased", n=N, seed=2), 1e5)
        assert entered.wait(timeout=10)  # the worker holds this request
        queued = server.submit(poisson_problem("unbiased", n=N, seed=3), 1e5)
        with pytest.raises(Backpressure):
            server.submit(poisson_problem("unbiased", n=N, seed=4), 1e5)
        gate.set()
        held.result(timeout=60)
        queued.result(timeout=60)
        cold = poisson_problem("biased", n=N, seed=5)
        assert server.solve(cold, 1e5, "biased", timeout=60).plan_source == "fallback"
        assert server.wait_for_swaps(timeout=60)
        assert server.solve(cold, 1e5, "biased", timeout=60).plan_source == "swapped"
    finally:
        gate.set()
        server.shutdown(drain=True)
    return server.stats()


KEY = "mp-d529725fa4ba9c6b/poisson/L3"

SERVER_STATS_JSON = """\
{
  "counters": {
    "batches": 6,
    "cache_hits": 5,
    "cache_misses": 1,
    "fallback_builds": 1,
    "fallback_served": 1,
    "plan_swaps": 1,
    "requests_completed": 6,
    "requests_rejected": 1,
    "requests_submitted": 6,
    "warmed_keys": 1
  },
  "gauges": {
    "cached_keys": 2.0,
    "queue_depth": 0.0
  },
  "latency": {
    "background_tune": {
      "count": 1,
      "mean_s": 0.0,
      "max_s": 0.0,
      "p50_s": 0.0,
      "p95_s": 0.0,
      "p99_s": 0.0
    },
    "queue_wait": {
      "count": 6,
      "mean_s": 0.0003333333333333333,
      "max_s": 0.002,
      "p50_s": 4.216965034285822e-07,
      "p95_s": 0.002,
      "p99_s": 0.002
    },
    "request_latency": {
      "count": 6,
      "mean_s": 0.0023333333333333335,
      "max_s": 0.004,
      "p50_s": 0.002053525026457146,
      "p95_s": 0.0036517412725483767,
      "p99_s": 0.0036517412725483767
    },
    "solve": {
      "count": 6,
      "mean_s": 0.0,
      "max_s": 0.0,
      "p50_s": 0.0,
      "p95_s": 0.0,
      "p99_s": 0.0
    }
  },
  "swap_events": [
    {
      "seq": 1,
      "key": "KEY/biased",
      "old_source": "fallback",
      "new_source": "swapped",
      "generation": 1,
      "stale_served": 1
    }
  ]
}""".replace("KEY", KEY)

SERVER_PROMETHEUS = """\
# TYPE repro_batches counter
repro_batches 6
# TYPE repro_cache_hits counter
repro_cache_hits 5
# TYPE repro_cache_misses counter
repro_cache_misses 1
# TYPE repro_fallback_builds counter
repro_fallback_builds 1
# TYPE repro_fallback_served counter
repro_fallback_served 1
# TYPE repro_plan_swaps counter
repro_plan_swaps 1
# TYPE repro_requests_completed counter
repro_requests_completed 6
# TYPE repro_requests_rejected counter
repro_requests_rejected 1
# TYPE repro_requests_submitted counter
repro_requests_submitted 6
# TYPE repro_warmed_keys counter
repro_warmed_keys 1
# TYPE repro_cached_keys gauge
repro_cached_keys 2.0
# TYPE repro_queue_depth gauge
repro_queue_depth 0.0
# TYPE repro_latency_background_tune summary
repro_latency_background_tune_count 1
repro_latency_background_tune_mean_s 0.0
repro_latency_background_tune_max_s 0.0
repro_latency_background_tune_p50_s 0.0
repro_latency_background_tune_p95_s 0.0
repro_latency_background_tune_p99_s 0.0
# TYPE repro_latency_queue_wait summary
repro_latency_queue_wait_count 6
repro_latency_queue_wait_mean_s 0.0003333333333333333
repro_latency_queue_wait_max_s 0.002
repro_latency_queue_wait_p50_s 4.216965034285822e-07
repro_latency_queue_wait_p95_s 0.002
repro_latency_queue_wait_p99_s 0.002
# TYPE repro_latency_request_latency summary
repro_latency_request_latency_count 6
repro_latency_request_latency_mean_s 0.0023333333333333335
repro_latency_request_latency_max_s 0.004
repro_latency_request_latency_p50_s 0.002053525026457146
repro_latency_request_latency_p95_s 0.0036517412725483767
repro_latency_request_latency_p99_s 0.0036517412725483767
# TYPE repro_latency_solve summary
repro_latency_solve_count 6
repro_latency_solve_mean_s 0.0
repro_latency_solve_max_s 0.0
repro_latency_solve_p50_s 0.0
repro_latency_solve_p95_s 0.0
repro_latency_solve_p99_s 0.0
""".replace("PKEY", KEY.replace("-", "_").replace("/", "_"))


def test_server_stats_json_is_pinned():
    stats = scenario_stats()
    assert json.dumps(stats, indent=2) == SERVER_STATS_JSON
    assert prometheus_text(stats) == SERVER_PROMETHEUS


def two_tier_stats() -> dict:
    """A ``FrontDoor.stats()``-shaped dict built from live telemetries."""
    front = Telemetry()
    front.incr("requests_submitted", 3)
    front.incr("requests_completed", 3)
    front.set_gauge("shards", 2)
    front.set_gauge("shard0:inflight", 1)
    for seconds in (0.001, 0.003, 0.010):
        front.observe("request_latency", seconds)
    shards = {}
    for index, completed in ((0, 2), (1, 1)):
        shard = Telemetry()
        shard.incr("requests_completed", completed)
        shard.set_gauge("queue_depth", index)
        shard.observe("solve", 0.002 * (index + 1))
        shard.swap_event(f"k{index}", "fallback", "swapped", generation=1)
        shards[str(index)] = shard.snapshot()
    return {"frontdoor": front.snapshot(), "shards": shards}


TWO_TIER_PROMETHEUS = """\
# TYPE repro_requests_completed counter
repro_requests_completed{tier="frontdoor"} 3
repro_requests_completed{tier="shard",shard="0"} 2
repro_requests_completed{tier="shard",shard="1"} 1
# TYPE repro_requests_submitted counter
repro_requests_submitted{tier="frontdoor"} 3
# TYPE repro_shard_inflight gauge
repro_shard_inflight{tier="frontdoor",shard="0"} 1.0
# TYPE repro_shards gauge
repro_shards{tier="frontdoor"} 2.0
# TYPE repro_latency_request_latency summary
repro_latency_request_latency_count{tier="frontdoor"} 3
repro_latency_request_latency_mean_s{tier="frontdoor"} 0.004666666666666667
repro_latency_request_latency_max_s{tier="frontdoor"} 0.01
repro_latency_request_latency_p50_s{tier="frontdoor"} 0.0027384196342643613
repro_latency_request_latency_p95_s{tier="frontdoor"} 0.008659643233600654
repro_latency_request_latency_p99_s{tier="frontdoor"} 0.008659643233600654
# TYPE repro_plan_swaps counter
repro_plan_swaps{tier="shard",shard="0"} 1
repro_plan_swaps{tier="shard",shard="1"} 1
# TYPE repro_queue_depth gauge
repro_queue_depth{tier="shard",shard="0"} 0.0
repro_queue_depth{tier="shard",shard="1"} 1.0
# TYPE repro_latency_solve summary
repro_latency_solve_count{tier="shard",shard="0"} 1
repro_latency_solve_mean_s{tier="shard",shard="0"} 0.002
repro_latency_solve_max_s{tier="shard",shard="0"} 0.002
repro_latency_solve_p50_s{tier="shard",shard="0"} 0.002
repro_latency_solve_p95_s{tier="shard",shard="0"} 0.002
repro_latency_solve_p99_s{tier="shard",shard="0"} 0.002
repro_latency_solve_count{tier="shard",shard="1"} 1
repro_latency_solve_mean_s{tier="shard",shard="1"} 0.004
repro_latency_solve_max_s{tier="shard",shard="1"} 0.004
repro_latency_solve_p50_s{tier="shard",shard="1"} 0.0036517412725483767
repro_latency_solve_p95_s{tier="shard",shard="1"} 0.0036517412725483767
repro_latency_solve_p99_s{tier="shard",shard="1"} 0.0036517412725483767
"""


def test_two_tier_prometheus_is_pinned():
    assert prometheus_text(two_tier_stats()) == TWO_TIER_PROMETHEUS


def test_per_shard_gauges_share_one_family():
    """Three shards' in-flight gauges export as one labelled family, with
    no colon (reserved for recording rules) in any metric name."""
    front = Telemetry()
    for index in range(3):
        front.set_gauge(f"shard{index}:inflight", index)
    text = prometheus_text({"frontdoor": front.snapshot(), "shards": {}})
    assert text.count("# TYPE ") == 1
    assert "# TYPE repro_shard_inflight gauge" in text
    for index in range(3):
        assert (
            f'repro_shard_inflight{{tier="frontdoor",shard="{index}"}} {float(index)}'
            in text
        )
    assert all(":" not in line.split("{")[0] for line in text.splitlines())


def test_kind_collision_rejected():
    """One name cannot be both a counter and a gauge: Prometheus allows
    a single type per family."""
    t = Telemetry()
    t.incr("x")
    with pytest.raises(ValueError):
        t.set_gauge("x", 1.0)
    t = Telemetry()
    t.set_gauge("y", 1.0)
    with pytest.raises(ValueError):
        t.incr("y")
