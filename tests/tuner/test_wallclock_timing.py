"""Tests for the wall-clock tuning mode (how real PetaBricks times
candidates) and the timing-strategy interface."""

import pytest

from repro.accuracy.judge import AccuracyJudge
from repro.accuracy.reference import ReferenceSolutionCache
from repro.machines.meter import OpMeter
from repro.machines.presets import INTEL_HARPERTOWN, SUN_NIAGARA
from repro.modeltuner.costmodel import CostModel
from repro.tuner.dp import VCycleTuner
from repro.tuner.executor import PlanExecutor
from repro.tuner.timing import CostModelTiming, WallclockTiming
from repro.tuner.training import TrainingData
from repro.workloads.distributions import make_problem


class TestWallclockTiming:
    def test_times_are_positive(self):
        timing = WallclockTiming(repeats=1)
        problem = make_problem("unbiased", 9, seed=1)
        meter = OpMeter()

        def run(x, b):
            x[1:-1, 1:-1] += 1.0

        t = timing.time_candidate(meter, run, [(problem.initial_guess(), problem.b)])
        assert t >= 0.0

    def test_op_seconds_disables_pruning(self):
        assert WallclockTiming().op_seconds("relax", 33) == 0.0

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            WallclockTiming(repeats=0)

    def test_requires_instances(self):
        with pytest.raises(ValueError):
            WallclockTiming(repeats=1).time_candidate(OpMeter(), lambda x, b: None, [])

    def test_tuned_plan_under_wallclock_meets_accuracy(self):
        # End-to-end: the paper-faithful timing mode still yields plans that
        # honour the accuracy ladder (the numerics are timing-independent).
        training = TrainingData(distribution="unbiased", instances=1, seed=23)
        plan = VCycleTuner(
            max_level=3,
            training=training,
            timing=WallclockTiming(repeats=1),
            keep_audit=False,
        ).tune()
        cache = ReferenceSolutionCache()
        problem = make_problem("unbiased", 9, seed=24)
        x_opt = cache.get(problem)
        executor = PlanExecutor()
        for i, target in enumerate(plan.accuracies):
            x = problem.initial_guess()
            judge = AccuracyJudge(x, x_opt)
            executor.run_v(plan, x, problem.b, i)
            assert judge.accuracy_of(x) >= 0.5 * target


class TestCostModelTiming:
    def test_prices_follow_profile(self):
        timing = CostModelTiming(INTEL_HARPERTOWN)
        meter = OpMeter()
        meter.charge("relax", 33, 2)
        t = timing.time_candidate(meter, lambda x, b: None, [])
        assert t == pytest.approx(INTEL_HARPERTOWN.price(meter))

    def test_op_seconds_matches_profile(self):
        timing = CostModelTiming(INTEL_HARPERTOWN)
        assert timing.op_seconds("direct", 17) == INTEL_HARPERTOWN.op_seconds("direct", 17)

    def test_plan_prices_are_bit_identical_to_profile_price(self, any_profile):
        # Pricing through the timing must not move a single bit: every
        # unit meter of a tuned plan costs what the profile itself says.
        plan = VCycleTuner(
            max_level=4,
            training=TrainingData(distribution="unbiased", instances=1, seed=5),
            keep_audit=False,
        ).tune()
        timing = CostModelTiming(any_profile)
        for level in range(1, 5):
            for acc in range(plan.num_accuracies):
                meter = plan.unit_meter(level, acc)
                assert timing.time_candidate(meter) == any_profile.price(meter)

    def test_model_priced_plan_names_the_timing_and_the_base(self):
        model = CostModel(base=SUN_NIAGARA, calibration=2.0)
        plan = VCycleTuner(
            max_level=3,
            training=TrainingData(distribution="unbiased", instances=1, seed=5),
            timing=CostModelTiming(model),
            keep_audit=False,
        ).tune()
        assert plan.metadata["timing"] == "CostModelTiming"
        assert plan.metadata["profile"] == SUN_NIAGARA.name
