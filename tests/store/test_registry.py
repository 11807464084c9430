"""Tests for the plan registry: exact hits, nearest fallback, tune-and-insert."""

import json

import pytest

from repro.machines.presets import (
    AMD_BARCELONA,
    INTEL_HARPERTOWN,
    SUN_NIAGARA,
)
from repro.machines.profile import MachineProfile
from repro.store.registry import PlanRegistry, TuneKey, profile_distance
from repro.store.trialdb import TrialDB
from repro.tuner.config import plan_to_dict
from repro.tuner.dp import VCycleTuner
from repro.tuner.timing import CostModelTiming
from repro.tuner.training import TrainingData


class CountingTuner:
    """Wraps the DP tuner, counting invocations."""

    def __init__(self, profile: MachineProfile, key: TuneKey) -> None:
        self.profile = profile
        self.key = key
        self.calls = 0

    def __call__(self):
        self.calls += 1
        training = TrainingData(
            distribution=self.key.distribution,
            instances=self.key.instances,
            seed=self.key.seed,
        )
        return VCycleTuner(
            max_level=self.key.max_level,
            accuracies=tuple(self.key.accuracies),
            training=training,
            timing=CostModelTiming(self.profile),
            keep_audit=False,
        ).tune()


@pytest.fixture
def key() -> TuneKey:
    return TuneKey(max_level=4, instances=1, seed=3)


class TestFingerprint:
    def test_stable_and_content_addressed(self):
        a = INTEL_HARPERTOWN.fingerprint()
        assert a == INTEL_HARPERTOWN.fingerprint()
        assert a.startswith("mp-")
        # Renaming doesn't change the content hash; changing cores does.
        from dataclasses import replace

        renamed = replace(INTEL_HARPERTOWN, name="other", description="x")
        assert renamed.fingerprint() == a
        assert replace(INTEL_HARPERTOWN, cores=2).fingerprint() != a

    def test_distinct_presets_distinct_fingerprints(self):
        fps = {p.fingerprint() for p in (INTEL_HARPERTOWN, AMD_BARCELONA, SUN_NIAGARA)}
        assert len(fps) == 3

    def test_profile_distance_properties(self):
        a = INTEL_HARPERTOWN.to_dict()
        b = AMD_BARCELONA.to_dict()
        assert profile_distance(a, a) == 0.0
        assert profile_distance(a, b) == profile_distance(b, a) > 0.0

    def test_profile_distance_sees_op_shapes(self):
        # Nested op-shape tables must enter the metric: a machine with
        # identical scalar rates but 100x op costs is NOT at distance 0.
        from dataclasses import replace

        from repro.machines.profile import OpShape

        weird = replace(
            INTEL_HARPERTOWN,
            op_shapes={
                op: OpShape(s.flops_per_point * 100, s.bytes_per_point * 100, s.barriers)
                for op, s in INTEL_HARPERTOWN.op_shapes.items()
            },
        )
        assert profile_distance(INTEL_HARPERTOWN.to_dict(), weird.to_dict()) > 0.0

    def test_profile_distance_penalizes_missing_fields(self):
        a = INTEL_HARPERTOWN.to_dict()
        partial = dict(a)
        del partial["cores"]
        assert profile_distance(a, partial) > 0.0


class TestGetOrTune:
    def test_second_call_skips_tuner_and_is_byte_identical(self, key):
        registry = PlanRegistry(TrialDB(":memory:"))
        tuner = CountingTuner(INTEL_HARPERTOWN, key)

        first = registry.get_or_tune(INTEL_HARPERTOWN, key, tuner=tuner)
        second = registry.get_or_tune(INTEL_HARPERTOWN, key, tuner=tuner)

        assert tuner.calls == 1  # the acceptance criterion: tuned exactly once
        assert first.source == "tuned"
        assert second.source == "exact"
        assert second.plan_json == first.plan_json  # byte-identical artifact
        assert plan_to_dict(second.plan) == plan_to_dict(first.plan)

    def test_exact_hit_survives_reopen(self, tmp_path, key):
        path = tmp_path / "store.sqlite"
        tuner = CountingTuner(INTEL_HARPERTOWN, key)
        first = PlanRegistry(path).get_or_tune(INTEL_HARPERTOWN, key, tuner=tuner)
        # A different process would see the same database file.
        second = PlanRegistry(path).get_or_tune(INTEL_HARPERTOWN, key, tuner=tuner)
        assert tuner.calls == 1
        assert second.source == "exact"
        assert second.plan_json == first.plan_json

    def test_nearest_profile_fallback(self, key):
        registry = PlanRegistry(TrialDB(":memory:"))
        registry.get_or_tune(
            INTEL_HARPERTOWN, key, tuner=CountingTuner(INTEL_HARPERTOWN, key)
        )
        registry.get_or_tune(SUN_NIAGARA, key, tuner=CountingTuner(SUN_NIAGARA, key))

        def never():
            raise AssertionError("nearest hit must not tune")

        hit = registry.get_or_tune(AMD_BARCELONA, key, tuner=never)
        assert hit.source == "nearest"
        # AMD's landscape is much closer to the Xeon than to Niagara's
        # 32-thread shared-FPU design, so the Intel plan serves (Fig 14).
        assert hit.machine_name == INTEL_HARPERTOWN.name
        assert hit.distance > 0.0

    def test_nearest_can_be_disabled_or_bounded(self, key):
        registry = PlanRegistry(TrialDB(":memory:"))
        registry.get_or_tune(
            INTEL_HARPERTOWN, key, tuner=CountingTuner(INTEL_HARPERTOWN, key)
        )
        tuner = CountingTuner(AMD_BARCELONA, key)
        hit = registry.get_or_tune(AMD_BARCELONA, key, allow_nearest=False, tuner=tuner)
        assert hit.source == "tuned"
        assert tuner.calls == 1
        # A tight distance bound also rejects the stored Intel plan.
        registry2 = PlanRegistry(TrialDB(":memory:"))
        registry2.get_or_tune(
            INTEL_HARPERTOWN, key, tuner=CountingTuner(INTEL_HARPERTOWN, key)
        )
        tuner2 = CountingTuner(AMD_BARCELONA, key)
        hit2 = registry2.get_or_tune(
            AMD_BARCELONA, key, max_distance=1e-9, tuner=tuner2
        )
        assert hit2.source == "tuned"

    def test_different_keys_are_different_plans(self, key):
        registry = PlanRegistry(TrialDB(":memory:"))
        tuner = CountingTuner(INTEL_HARPERTOWN, key)
        registry.get_or_tune(INTEL_HARPERTOWN, key, tuner=tuner)
        other = TuneKey(
            max_level=key.max_level,
            instances=key.instances,
            seed=key.seed,
            distribution="biased",
        )
        tuner2 = CountingTuner(INTEL_HARPERTOWN, other)
        hit = registry.get_or_tune(INTEL_HARPERTOWN, other, tuner=tuner2)
        assert hit.source == "tuned"
        assert tuner2.calls == 1
        assert len(registry) == 2

    def test_default_tuner_and_kind_validation(self):
        registry = PlanRegistry(TrialDB(":memory:"))
        hit = registry.get_or_tune(
            INTEL_HARPERTOWN, max_level=3, instances=1, seed=3, kind="full-multigrid"
        )
        assert hit.source == "tuned"
        assert json.loads(hit.plan_json)["kind"] == "full-multigrid"
        with pytest.raises(ValueError, match="kind"):
            TuneKey(kind="w-cycle")

    def test_trial_logged_on_tune(self, key):
        db = TrialDB(":memory:")
        registry = PlanRegistry(db)
        registry.get_or_tune(
            INTEL_HARPERTOWN, key, tuner=CountingTuner(INTEL_HARPERTOWN, key)
        )
        registry.get_or_tune(
            INTEL_HARPERTOWN, key, tuner=CountingTuner(INTEL_HARPERTOWN, key)
        )
        trials = db.trials()
        assert len(trials) == 1  # hits don't append trials
        assert trials[0].machine_fingerprint == INTEL_HARPERTOWN.fingerprint()
        assert trials[0].wall_seconds > 0
        assert trials[0].simulated_cost > 0

    def test_hit_counter(self, key):
        registry = PlanRegistry(TrialDB(":memory:"))
        registry.get_or_tune(
            INTEL_HARPERTOWN, key, tuner=CountingTuner(INTEL_HARPERTOWN, key)
        )
        registry.get_or_tune(INTEL_HARPERTOWN, key)
        registry.get_or_tune(INTEL_HARPERTOWN, key)
        (summary,) = registry.plans()
        assert summary["hits"] == 2
        assert summary["last_used_at"] is not None
