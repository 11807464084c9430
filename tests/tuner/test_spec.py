"""TuneSpec: one picklable description builds every tuner.

Pins the properties pool workers and the cold paths rely on: equal
inputs give equal, hashable specs that survive pickling; the storage
key of a fixed key never moves; the spec picks evaluation pricing by
one rule; and every cold path tunes the same bytes for one spec.
"""

import json
import pickle

import pytest

from repro import core
from repro.machines.presets import INTEL_HARPERTOWN, SUN_NIAGARA
from repro.modeltuner.costmodel import CostModel, ModelTiming
from repro.store.registry import PlanRegistry, TuneKey
from repro.store.trialdb import TrialDB
from repro.tuner.config import plan_to_dict
from repro.tuner.dp import VCycleTuner
from repro.tuner.full_mg import FullMGTuner
from repro.tuner.spec import TuneSpec, tune
from repro.tuner.timing import CostModelTiming, WallclockTiming
from repro.tuner.training import TrainingData


def _key(**fields):
    fields.setdefault("max_level", 3)
    fields.setdefault("instances", 1)
    fields.setdefault("seed", 3)
    return TuneKey(**fields)


def _canonical(plan) -> str:
    return json.dumps(plan_to_dict(plan), sort_keys=True, separators=(",", ":"))


class TestIdentity:
    def test_equal_inputs_give_equal_hashable_specs(self):
        a = TuneSpec(_key(operator="varcoeff"), profile=INTEL_HARPERTOWN)
        b = TuneSpec(_key(operator="varcoeff()"), profile=INTEL_HARPERTOWN)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_differences_are_seen(self):
        base = TuneSpec(_key(), profile=INTEL_HARPERTOWN)
        assert base != TuneSpec(_key(), profile=SUN_NIAGARA)
        assert base != TuneSpec(_key(seed=4), profile=INTEL_HARPERTOWN)
        assert base != TuneSpec(_key(), profile=INTEL_HARPERTOWN, max_sor_iters=10)

    def test_pickle_round_trip(self):
        model = CostModel(base=INTEL_HARPERTOWN, calibration=2.0)
        for spec in (
            TuneSpec(_key(backend="cnative"), profile=INTEL_HARPERTOWN),
            TuneSpec(_key(ndim=3, operator="poisson3d"), model_json=model.to_json()),
        ):
            clone = pickle.loads(pickle.dumps(spec))
            assert clone == spec
            assert hash(clone) == hash(spec)

    def test_priced_by_exactly_one_of_profile_or_model(self):
        model_json = CostModel(base=INTEL_HARPERTOWN).to_json()
        with pytest.raises(ValueError, match="profile"):
            TuneSpec(_key())
        with pytest.raises(ValueError, match="profile"):
            TuneSpec(_key(), profile=INTEL_HARPERTOWN, model_json=model_json)


class TestStorageKey:
    """Stored plans are found by these exact bytes; they never move."""

    def test_2d_key_bytes(self):
        key = TuneKey(
            max_level=5,
            accuracies=(10.0, 1e5, 1e9),
            seed=7,
            instances=2,
            operator="varcoeff",
            backend="cnative",
        )
        assert key.storage_key("mp-0123456789abcdef") == (
            "mp-0123456789abcdef|multigrid-v|unbiased|5|"
            "[10.0,100000.0,1000000000.0]|7|2|varcoeff|2|cnative"
        )

    def test_3d_key_bytes(self):
        key = TuneKey(kind="full-multigrid", max_level=4, seed=None, operator="poisson3d")
        assert key.storage_key("mp-0123456789abcdef") == (
            "mp-0123456789abcdef|full-multigrid|unbiased|4|"
            "[10.0,1000.0,100000.0,10000000.0,1000000000.0]|null|3|poisson3d|3|numpy"
        )

    def test_spec_keeps_the_key(self):
        key = _key(operator="anisotropic")
        assert TuneSpec(key, profile=INTEL_HARPERTOWN).key.storage_key("fp") == (
            key.storage_key("fp")
        )


class TestPricing:
    def test_profile_prices_when_given(self):
        timing = TuneSpec(_key(), profile=INTEL_HARPERTOWN).timing()
        assert type(timing) is CostModelTiming
        assert timing.profile is INTEL_HARPERTOWN

    def test_model_prices_only_without_profile(self):
        model = CostModel(base=INTEL_HARPERTOWN, calibration=3.0)
        timing = TuneSpec(_key(), model_json=model.to_json()).timing()
        assert isinstance(timing, ModelTiming)
        assert timing.op_seconds("relax", 33) == model.op_seconds("relax", 33)

    def test_from_training_drops_a_model_that_only_steers(self):
        model = CostModel(base=INTEL_HARPERTOWN, calibration=3.0)
        training = TrainingData(instances=1, seed=3)
        steered = TuneSpec.from_training(
            training, profile=INTEL_HARPERTOWN, model=model, max_level=3,
            accuracies=(10.0, 1e5),
        )
        assert steered.model_json is None
        assert type(steered.timing()) is CostModelTiming
        alone = TuneSpec.from_training(
            training, profile=None, model=model, max_level=3, accuracies=(10.0, 1e5)
        )
        assert isinstance(alone.timing(), ModelTiming)

    def test_of_rebuilds_a_live_tuner(self):
        spec = TuneSpec(_key(operator="anisotropic", backend="cnative"), profile=SUN_NIAGARA)
        assert TuneSpec.of(spec.build()) == spec

    def test_of_names_the_full_mg_pass(self):
        spec = TuneSpec(_key(kind="full-multigrid"), profile=INTEL_HARPERTOWN)
        fmg = spec.build(vplan=spec.build().tune())
        assert isinstance(fmg, FullMGTuner)
        assert TuneSpec.of(fmg).key.kind == "full-multigrid"

    def test_of_rejects_nondeterministic_pricing(self):
        training = TrainingData(instances=1, seed=3)
        for timing in (WallclockTiming(repeats=1), CostModelTiming(INTEL_HARPERTOWN, 8)):
            tuner = VCycleTuner(max_level=3, training=training, timing=timing)
            with pytest.raises(NotImplementedError, match="CostModelTiming"):
                TuneSpec.of(tuner)


class TestOneTuneForEveryPath:
    def test_registry_cold_path_matches_core_autotune(self):
        key = _key(operator="varcoeff")
        spec = TuneSpec(key, profile=INTEL_HARPERTOWN)
        hit = PlanRegistry(TrialDB(":memory:")).get_or_tune(
            INTEL_HARPERTOWN, key, allow_nearest=False
        )
        direct = core.autotune(
            max_level=3, machine=INTEL_HARPERTOWN, instances=1, seed=3, operator="varcoeff"
        )
        assert hit.source == "tuned"
        assert hit.plan_json == _canonical(direct) == _canonical(tune(spec))

    def test_full_mg_paths_agree(self):
        key = _key(kind="full-multigrid")
        hit = PlanRegistry(TrialDB(":memory:")).get_or_tune(
            INTEL_HARPERTOWN, key, allow_nearest=False
        )
        direct = core.autotune_full_mg(max_level=3, instances=1, seed=3)
        assert hit.plan_json == _canonical(direct)

    def test_unknown_tuner_rejected(self):
        with pytest.raises(ValueError, match="unknown tuner"):
            tune(TuneSpec(_key(), profile=INTEL_HARPERTOWN), tuner="ga")
