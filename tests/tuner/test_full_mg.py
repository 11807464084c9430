"""Tests for the full-multigrid tuner extension (section 2.4)."""

import dataclasses

import pytest

from repro.accuracy.judge import AccuracyJudge
from repro.accuracy.reference import ReferenceSolutionCache
from repro.kernels import get_backend
from repro.kernels.cnative import CNativeBackend
from repro.machines.presets import INTEL_HARPERTOWN
from repro.operators.spec import shared_operator
from repro.tuner.choices import DirectChoice, EstimateChoice
from repro.tuner.dp import VCycleTuner
from repro.tuner.executor import PlanExecutor
from repro.tuner.full_mg import FullMGTuner
from repro.tuner.timing import WallclockTiming
from repro.tuner.training import TrainingData
from repro.util.validation import size_of_level
from repro.workloads.distributions import make_problem


class TestStructure:
    def test_level_one_direct(self, tuned_fmg_plan):
        for i in range(tuned_fmg_plan.num_accuracies):
            assert tuned_fmg_plan.choice(1, i) == DirectChoice()

    def test_slots_are_direct_or_estimate(self, tuned_fmg_plan):
        for choice in tuned_fmg_plan.table.values():
            assert isinstance(choice, (DirectChoice, EstimateChoice))

    def test_shares_vplan(self, tuned_fmg_plan, tuned_plan):
        assert tuned_fmg_plan.vplan is tuned_plan

    def test_metadata(self, tuned_fmg_plan):
        assert tuned_fmg_plan.metadata["kind"] == "full-multigrid"


class TestQuality:
    def test_meets_accuracy_targets(self, tuned_fmg_plan):
        cache = ReferenceSolutionCache()
        executor = PlanExecutor()
        problem = make_problem("unbiased", 33, seed=301)
        x_opt = cache.get(problem)
        for i, target in enumerate(tuned_fmg_plan.accuracies):
            x = problem.initial_guess()
            judge = AccuracyJudge(x, x_opt)
            executor.run_full_mg(tuned_fmg_plan, x, problem.b, i)
            assert judge.accuracy_of(x) >= 0.5 * target

    def test_no_slower_than_vplan_under_profile(self, tuned_fmg_plan, tuned_plan):
        # FULL-MULTIGRID always pays an estimation phase before iterating
        # (the paper's structure has no plain-iterate option), so at *low*
        # accuracy it can trail the V plan by the estimate overhead; it must
        # never be drastically worse, and at the top accuracy the estimate
        # should pay for itself.
        m = tuned_fmg_plan.num_accuracies
        for i in range(m):
            tf = tuned_fmg_plan.time_on(INTEL_HARPERTOWN, 5, i)
            tv = tuned_plan.time_on(INTEL_HARPERTOWN, 5, i)
            assert tf <= 2.5 * tv
        top_f = tuned_fmg_plan.time_on(INTEL_HARPERTOWN, 5, m - 1)
        top_v = tuned_plan.time_on(INTEL_HARPERTOWN, 5, m - 1)
        assert top_f <= 1.25 * top_v

    def test_monotone_times_in_accuracy(self, tuned_fmg_plan):
        times = [
            tuned_fmg_plan.time_on(INTEL_HARPERTOWN, 5, i)
            for i in range(tuned_fmg_plan.num_accuracies)
        ]
        for a, b in zip(times, times[1:]):
            assert b >= a * 0.999


class TestGuards:
    def test_wallclock_timing_rejected(self, tuned_plan, shared_training):
        with pytest.raises(NotImplementedError):
            FullMGTuner(
                vplan=tuned_plan,
                training=shared_training,
                timing=WallclockTiming(),
            )

    def test_cannot_exceed_vplan_levels(self, tuned_plan, shared_training):
        tuner = FullMGTuner(vplan=tuned_plan, training=shared_training)
        with pytest.raises(ValueError, match="cannot exceed"):
            tuner.tune(max_level=tuned_plan.max_level + 1)

    def test_partial_level_tuning(self, tuned_plan, shared_training):
        tuner = FullMGTuner(vplan=tuned_plan, training=shared_training)
        plan = tuner.tune(max_level=3)
        assert plan.max_level == 3
        assert (3, 0) in plan.table
        assert (4, 0) not in plan.table


class TestKernelBackends:
    def test_estimate_training_runs_the_plans_kernels(self, monkeypatch):
        """At a level the V plan places on cnative, the estimation phase
        the tuner trains from runs cnative kernels, not the operator's
        NumPy residual."""
        if not get_backend("cnative").available():
            pytest.skip("cnative backend unavailable on this host")
        # A training seed no other test uses, so the full-MG tuner (and
        # its kernel bindings) is built while the spies are in place.
        training = TrainingData(distribution="unbiased", instances=1, seed=4243)
        vplan = VCycleTuner(
            max_level=5, training=training, backend="cnative", keep_audit=False
        ).tune()
        assert vplan.backend_at(5) == "cnative"
        op = shared_operator(training.operator, size_of_level(5))

        def numpy_residual(*args, **kwargs):
            raise AssertionError("NumPy residual at a cnative level")

        calls = []
        bind = CNativeBackend.bind

        def spying_bind(self, bound_op):
            kernels = bind(self, bound_op)

            def residual(*args, **kwargs):
                calls.append(bound_op.n)
                return kernels.residual(*args, **kwargs)

            return dataclasses.replace(kernels, residual=residual)

        monkeypatch.setattr(op, "residual", numpy_residual)
        monkeypatch.setattr(CNativeBackend, "bind", spying_bind)
        FullMGTuner(vplan=vplan, training=training, keep_audit=False).tune()
        assert op.n in calls
