"""Tests for the serving plan cache (stale-while-tune semantics)."""

import pytest

from repro.machines.presets import AMD_BARCELONA, INTEL_HARPERTOWN
from repro.serve.cache import PlanCache, ServeKey
from repro.store.registry import PlanRegistry
from repro.store.trialdb import TrialDB


@pytest.fixture
def registry():
    return PlanRegistry(TrialDB(":memory:"))


@pytest.fixture
def cache(registry):
    return PlanCache(registry, instances=1, seed=3)


class TestServeKey:
    def test_operator_normalized(self):
        key = ServeKey("fp", None, 3, "unbiased")
        assert key.operator == "poisson"
        spelled = ServeKey("fp", "anisotropic(epsilon=1e-2)", 3, "unbiased")
        canonical = ServeKey("fp", "anisotropic(epsilon=0.01)", 3, "unbiased")
        assert spelled == canonical

    def test_label_mentions_every_field(self):
        key = ServeKey("fp-abc", "poisson", 4, "biased")
        assert "fp-abc" in key.label()
        assert "L4" in key.label()
        assert "biased" in key.label()


class TestWarm:
    def test_warm_tunes_and_caches(self, cache, registry):
        entry = cache.warm(INTEL_HARPERTOWN, "unbiased", 3)
        assert entry.source == "tuned"
        assert not entry.stale
        assert len(registry) == 1
        # Warming again is a no-op lookup (no second tune).
        again = cache.warm(INTEL_HARPERTOWN, "unbiased", 3)
        assert again is entry
        assert registry.db.count_trials() == 1

    def test_warm_key_serves_without_fallback(self, cache):
        cache.warm(INTEL_HARPERTOWN, "unbiased", 3)
        key = cache.key_for(INTEL_HARPERTOWN, None, 3, "unbiased")
        entry = cache.get_or_fallback(INTEL_HARPERTOWN, key)
        assert entry.source == "tuned"
        assert not entry.stale


class TestFallback:
    def test_fallback_plan_runs_on_the_cache_backend(self, registry):
        from repro.kernels import get_backend

        if not get_backend("cnative").available():
            pytest.skip("backend 'cnative' is unavailable on this host")
        cache = PlanCache(registry, instances=1, seed=3, backend="cnative")
        key = cache.key_for(INTEL_HARPERTOWN, None, 5, "unbiased")
        entry = cache.get_or_fallback(INTEL_HARPERTOWN, key)
        assert entry.source == "fallback"
        assert entry.plan.metadata["backend"] == "cnative"
        assert set(entry.plan.backends.values()) == {"cnative"}

    def test_cold_key_serves_heuristic_and_marks_stale(self, cache):
        key = cache.key_for(INTEL_HARPERTOWN, None, 3, "unbiased")
        entry = cache.get_or_fallback(INTEL_HARPERTOWN, key)
        assert entry.source == "fallback"
        assert entry.stale
        assert entry.plan.metadata.get("serve_fallback") is True
        assert entry.plan.metadata.get("heuristic", "").startswith("Strategy")
        # The fallback never touches the registry's plans table.
        assert len(cache.registry) == 0

    def test_fallback_cached_not_rebuilt(self, cache):
        key = cache.key_for(INTEL_HARPERTOWN, None, 3, "unbiased")
        first = cache.get_or_fallback(INTEL_HARPERTOWN, key)
        second = cache.get_or_fallback(INTEL_HARPERTOWN, key)
        assert second is first
        assert second.serve_count() == 2
        assert cache.telemetry.counter("fallback_builds") == 1

    def test_registry_exact_hit_prefers_stored_plan(self, cache, registry):
        registry.get_or_tune(
            INTEL_HARPERTOWN, cache.tune_key(
                cache.key_for(INTEL_HARPERTOWN, None, 3, "unbiased")
            )
        )
        key = cache.key_for(INTEL_HARPERTOWN, None, 3, "unbiased")
        entry = cache.get_or_fallback(INTEL_HARPERTOWN, key)
        assert entry.source == "exact"
        assert not entry.stale

    def test_nearest_profile_serves_without_fallback(self, cache, registry):
        registry.get_or_tune(
            INTEL_HARPERTOWN, cache.tune_key(
                cache.key_for(INTEL_HARPERTOWN, None, 3, "unbiased")
            )
        )
        key = cache.key_for(AMD_BARCELONA, None, 3, "unbiased")
        entry = cache.get_or_fallback(AMD_BARCELONA, key)
        assert entry.source == "nearest"
        assert not entry.stale

    def test_allow_nearest_false_falls_back_instead(self, registry):
        cache = PlanCache(registry, instances=1, seed=3, allow_nearest=False)
        registry.get_or_tune(
            INTEL_HARPERTOWN, cache.tune_key(
                cache.key_for(INTEL_HARPERTOWN, None, 3, "unbiased")
            )
        )
        key = cache.key_for(AMD_BARCELONA, None, 3, "unbiased")
        entry = cache.get_or_fallback(AMD_BARCELONA, key)
        assert entry.source == "fallback"


class TestSwap:
    def test_swap_bumps_generation_and_records_event(self, cache, registry):
        key = cache.key_for(INTEL_HARPERTOWN, None, 3, "unbiased")
        stale = cache.get_or_fallback(INTEL_HARPERTOWN, key)
        assert stale.generation == 0
        hit = registry.get_or_tune(INTEL_HARPERTOWN, cache.tune_key(key))
        swapped = cache.swap(key, hit.plan, source="swapped", plan_json=hit.plan_json)
        assert swapped.generation == 1
        assert not swapped.stale
        assert cache.lookup(key) is swapped
        (event,) = cache.telemetry.swap_events
        assert event.old_source == "fallback"
        assert event.new_source == "swapped"
        assert event.stale_served == 1

    def test_old_entry_remains_usable_after_swap(self, cache, registry):
        """Readers holding the pre-swap entry keep a coherent plan."""
        key = cache.key_for(INTEL_HARPERTOWN, None, 3, "unbiased")
        stale = cache.get_or_fallback(INTEL_HARPERTOWN, key)
        held_plan = stale.plan
        hit = registry.get_or_tune(INTEL_HARPERTOWN, cache.tune_key(key))
        cache.swap(key, hit.plan)
        # The held entry is untouched: same plan object, still executable.
        assert stale.plan is held_plan
        assert stale.plan.choice(3, 0) is not None

    def test_keys_and_len(self, cache):
        assert len(cache) == 0
        key = cache.key_for(INTEL_HARPERTOWN, None, 3, "unbiased")
        cache.get_or_fallback(INTEL_HARPERTOWN, key)
        assert len(cache) == 1
        assert cache.keys() == [key]


class TestLockFreeWarmHits:
    def test_warm_lookups_never_block_on_a_stuck_miss(self, cache):
        """The sharded tier's hot path guarantee: a miss that is stuck
        inside a registry lookup (holding its per-key build lock) must
        not delay concurrent warm-key readers — the warm-hit path takes
        no cache-wide lock at all."""
        import threading

        cache.warm(INTEL_HARPERTOWN, "unbiased", 3)
        warm_key = cache.key_for(INTEL_HARPERTOWN, None, 3, "unbiased")
        cold_key = cache.key_for(INTEL_HARPERTOWN, None, 4, "biased")

        miss_entered = threading.Event()
        release_miss = threading.Event()
        original_get = cache.registry.get

        def stuck_get(*args, **kwargs):
            miss_entered.set()
            assert release_miss.wait(timeout=30)
            return original_get(*args, **kwargs)

        cache.registry.get = stuck_get  # instance shadow; scoped to this test
        try:
            miss = threading.Thread(
                target=cache.get_or_fallback, args=(INTEL_HARPERTOWN, cold_key)
            )
            miss.start()
            assert miss_entered.wait(timeout=30)
            # The miss now sits inside the registry with its build lock
            # held.  Warm hits from many threads must all finish without
            # waiting for it.
            results: list[object] = []

            def warm_hit():
                results.append(cache.get_or_fallback(INTEL_HARPERTOWN, warm_key))

            readers = [threading.Thread(target=warm_hit) for _ in range(8)]
            for reader in readers:
                reader.start()
            for reader in readers:
                reader.join(timeout=10)
                assert not reader.is_alive(), "warm hit blocked behind a miss"
            assert len(results) == 8
            assert all(entry.source == "tuned" for entry in results)
            assert cache.telemetry.counter("cache_hits") >= 8
        finally:
            release_miss.set()
            miss.join(timeout=30)
            del cache.registry.get
        assert not miss.is_alive()
        assert cache.lookup(cold_key) is not None
