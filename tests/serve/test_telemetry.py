"""Tests for the serving telemetry module."""

import json

import pytest

import repro.serve
from repro.obs.metrics import Histogram
from repro.serve.telemetry import Telemetry


class TestHistogram:
    def test_empty(self):
        hist = Histogram()
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.percentile(0.95) == 0.0

    def test_percentiles_bracket_observations(self):
        hist = Histogram()
        values = [0.001 * (i + 1) for i in range(100)]  # 1ms .. 100ms
        for v in values:
            hist.record(v)
        # Bucketed estimates are within one geometric bucket (~33%).
        assert hist.percentile(0.50) == pytest.approx(0.050, rel=0.4)
        assert hist.percentile(0.95) == pytest.approx(0.095, rel=0.4)
        assert hist.percentile(0.99) == pytest.approx(0.099, rel=0.4)
        assert hist.percentile(1.0) <= hist.max
        assert hist.mean == pytest.approx(sum(values) / len(values))

    def test_percentiles_monotone_in_q(self):
        hist = Histogram()
        for v in (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0):
            hist.record(v)
        qs = [0.1, 0.5, 0.9, 0.99, 1.0]
        ps = [hist.percentile(q) for q in qs]
        assert ps == sorted(ps)

    def test_overflow_bucket_uses_observed_max(self):
        hist = Histogram(bounds=(0.1, 1.0))
        hist.record(50.0)
        assert hist.percentile(0.99) == 50.0

    def test_rejects_bad_input(self):
        hist = Histogram()
        with pytest.raises(ValueError):
            hist.record(-1.0)
        with pytest.raises(ValueError):
            hist.percentile(1.5)
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0, 0.1))


class TestTelemetry:
    def test_latency_uses_the_obs_histogram(self):
        # One histogram type: the serving package re-exports the
        # observability one and Telemetry records into it.
        assert repro.serve.Histogram is Histogram
        assert "Histogram" in repro.serve.__all__
        t = Telemetry()
        t.observe("lat", 0.01)
        t.observe("lat", 0.3)
        hist = Histogram()
        hist.record(0.01)
        hist.record(0.3)
        assert t.snapshot()["latency"]["lat"] == hist.to_dict()

    def test_counters_and_gauges(self):
        t = Telemetry()
        t.incr("requests")
        t.incr("requests", 4)
        t.set_gauge("queue_depth", 7)
        assert t.counter("requests") == 5
        assert t.counter("unknown") == 0
        assert t.gauge("queue_depth") == 7.0

    def test_observe_and_percentile(self):
        t = Telemetry()
        for v in (0.001, 0.002, 0.004):
            t.observe("lat", v)
        assert t.percentile("lat", 0.5) > 0
        assert t.percentile("missing", 0.5) == 0.0

    def test_swap_events_are_bounded(self):
        t = Telemetry(max_events=3)
        for i in range(5):
            t.swap_event(f"key-{i}", "fallback", "swapped", generation=i)
        events = t.swap_events
        assert len(events) == 3
        assert [e.seq for e in events] == [3, 4, 5]
        assert t.counter("plan_swaps") == 5

    def test_snapshot_is_json_serializable(self):
        t = Telemetry()
        t.incr("requests")
        t.set_gauge("depth", 1)
        t.observe("lat", 0.01)
        t.swap_event("k", "fallback", "swapped", generation=1, stale_served=2)
        snap = json.loads(t.to_json())
        assert snap["counters"]["requests"] == 1
        assert snap["counters"]["plan_swaps"] == 1
        assert snap["latency"]["lat"]["count"] == 1
        assert snap["swap_events"][0]["stale_served"] == 2
        # p50/p95/p99 keys exist for dashboards
        assert {"p50_s", "p95_s", "p99_s"} <= set(snap["latency"]["lat"])


class TestSlidingWindow:
    """The windowed percentiles behind SLO swaps and shard p99 gauges."""

    def test_empty_window(self):
        from repro.serve.telemetry import SlidingWindow

        window = SlidingWindow(window_s=5.0)
        assert window.count(now=0.0) == 0
        assert window.percentile(now=0.0, q=0.99) == 0.0

    def test_percentile_is_exact_over_live_samples(self):
        from repro.serve.telemetry import SlidingWindow

        window = SlidingWindow(window_s=10.0)
        for i, v in enumerate([0.1, 0.2, 0.3, 0.4]):
            window.record(now=float(i), value=v)
        assert window.count(now=3.0) == 4
        assert window.percentile(now=3.0, q=0.5) == 0.2
        assert window.percentile(now=3.0, q=0.99) == 0.4

    def test_old_samples_age_out(self):
        from repro.serve.telemetry import SlidingWindow

        window = SlidingWindow(window_s=5.0)
        window.record(now=0.0, value=9.0)
        window.record(now=4.0, value=0.1)
        assert window.percentile(now=4.0, q=0.99) == 9.0
        # The slow sample falls off the horizon; the window forgets it.
        assert window.count(now=6.0) == 1
        assert window.percentile(now=6.0, q=0.99) == 0.1
        assert window.count(now=20.0) == 0

    def test_bounded_samples_evict_oldest(self):
        from repro.serve.telemetry import SlidingWindow

        window = SlidingWindow(window_s=100.0, max_samples=4)
        for i in range(8):
            window.record(now=float(i), value=float(i))
        assert window.count(now=7.0) == 4
        assert window.percentile(now=7.0, q=0.0) == 4.0  # 0..3 evicted

    def test_to_dict_and_validation(self):
        from repro.serve.telemetry import SlidingWindow

        window = SlidingWindow(window_s=5.0)
        window.record(now=1.0, value=0.25)
        snap = window.to_dict(now=1.0)
        assert snap["count"] == 1
        assert snap["p99_s"] == 0.25
        with pytest.raises(ValueError):
            SlidingWindow(window_s=0.0)
        with pytest.raises(ValueError):
            window.record(now=2.0, value=-1.0)
        with pytest.raises(ValueError):
            window.percentile(now=2.0, q=1.5)

    def test_telemetry_windowed_surface(self):
        from repro.util.clock import ManualClock

        clock = ManualClock()
        t = Telemetry(clock=clock, window_s=5.0)
        for v in (0.1, 0.2, 0.3, 0.4):
            t.observe_windowed("lat", v)
        assert t.window_count("lat") == 4
        assert t.window_percentile("lat", 0.99) == 0.4
        clock.advance(6.0)
        assert t.window_count("lat") == 0
        assert t.window_percentile("lat", 0.99) == 0.0
