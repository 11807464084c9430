"""Swallowed serving failures are counted and kept for inspection.

``Telemetry.failure`` is the one place a failure the serving path
deliberately survives goes: the counter rises and the record — the
exception type, a bounded message and the caller's context — joins a
bounded per-counter log.  These tests inject a fault into each path
that swallows one and find its record.
"""

import pytest

from repro.machines.presets import INTEL_HARPERTOWN
from repro.serve.cache import PlanCache
from repro.serve.telemetry import TUNE_FAILURE_LIMIT, Telemetry
from repro.store.registry import PlanRegistry
from repro.store.trialdb import TrialDB


@pytest.fixture
def registry():
    return PlanRegistry(TrialDB(":memory:"))


class TestFailureLog:
    def test_failure_counts_and_keeps_the_record(self):
        t = Telemetry()
        record = t.failure("tune_errors", ValueError("bad plan"), key="k", trace_id=None)
        assert record == {
            "type": "ValueError",
            "message": "bad plan",
            "key": "k",
            "trace_id": None,
        }
        assert t.failures("tune_errors") == [record]
        assert t.counter("tune_errors") == 1
        assert t.failures("model_fallback_errors") == []

    def test_log_is_bounded_per_counter_and_keeps_the_newest(self):
        t = Telemetry()
        for i in range(TUNE_FAILURE_LIMIT + 3):
            t.failure("a", RuntimeError(str(i)))
        t.failure("b", RuntimeError("other"))
        kept = t.failures("a")
        assert len(kept) == TUNE_FAILURE_LIMIT
        assert kept[0]["message"] == "3"
        assert kept[-1]["message"] == str(TUNE_FAILURE_LIMIT + 2)
        assert t.counter("a") == TUNE_FAILURE_LIMIT + 3
        assert [r["message"] for r in t.failures("b")] == ["other"]

    def test_snapshot_shape_is_unchanged(self):
        t = Telemetry()
        t.failure("tune_errors", RuntimeError("x"))
        snap = t.snapshot()
        assert set(snap) == {"counters", "gauges", "latency", "swap_events"}
        assert snap["counters"] == {"tune_errors": 1}

    def test_negative_increment_rejected(self):
        t = Telemetry()
        with pytest.raises(ValueError):
            t.incr("requests", -1)
        assert t.counter("requests") == 0


class TestCacheFaults:
    def test_model_fallback_failure_is_kept(self, registry, monkeypatch):
        import repro.modeltuner.warmstart as warmstart

        def broken_builder(registry, profile, key):
            raise RuntimeError("model store unreadable")

        monkeypatch.setattr(warmstart, "model_plan_for_key", broken_builder)
        cache = PlanCache(registry, instances=1, seed=0, model_fallback=True)
        key = cache.key_for(INTEL_HARPERTOWN, None, 3, "unbiased")
        entry = cache.get_or_fallback(INTEL_HARPERTOWN, key)
        # the heuristic still serves
        assert entry.source == "fallback"
        assert entry.plan.metadata.get("heuristic", "").startswith("Strategy")
        assert cache.telemetry.failures("model_fallback_errors") == [
            {
                "type": "RuntimeError",
                "message": "model store unreadable",
                "key": key.label(),
            }
        ]
        assert cache.telemetry.counter("model_fallback_errors") == 1
