"""End-to-end integration: the full paper pipeline at small scale.

Tune V and full-MG plans for two architectures, verify the tuned
algorithms hit their accuracy contracts on unseen data, round-trip the
configuration files, and check the cross-architecture pricing story — the complete life of a PetaBricks-tuned multigrid solver.
"""

import numpy as np
import pytest

from repro.accuracy.judge import AccuracyJudge
from repro.accuracy.reference import ReferenceSolutionCache
from repro.machines.presets import INTEL_HARPERTOWN, SUN_NIAGARA
from repro.tuner.config import load_plan, save_plan
from repro.tuner.dp import VCycleTuner
from repro.tuner.executor import PlanExecutor
from repro.tuner.full_mg import FullMGTuner
from repro.tuner.timing import CostModelTiming
from repro.tuner.training import TrainingData
from repro.workloads.distributions import make_problem

MAX_LEVEL = 4


@pytest.fixture(scope="module")
def plans():
    out = {}
    for profile in (INTEL_HARPERTOWN, SUN_NIAGARA):
        training = TrainingData(distribution="biased", instances=2, seed=17)
        vplan = VCycleTuner(
            max_level=MAX_LEVEL,
            training=training,
            timing=CostModelTiming(profile),
            keep_audit=False,
        ).tune()
        fplan = FullMGTuner(
            vplan=vplan, training=training, timing=CostModelTiming(profile)
        ).tune()
        out[profile.name] = (vplan, fplan)
    return out


class TestAccuracyContracts:
    def test_both_architectures_both_plan_kinds(self, plans):
        cache = ReferenceSolutionCache()
        executor = PlanExecutor()
        problem = make_problem("biased", 17, seed=901)
        x_opt = cache.get(problem)
        for vplan, fplan in plans.values():
            for plan, runner in ((vplan, executor.run_v), (fplan, executor.run_full_mg)):
                for i, target in enumerate(plan.accuracies):
                    x = problem.initial_guess()
                    judge = AccuracyJudge(x, x_opt)
                    runner(plan, x, problem.b, i)
                    assert judge.accuracy_of(x) >= 0.5 * target


class TestConfigLifecycle:
    def test_save_load_execute(self, plans, tmp_path):
        vplan, fplan = plans[INTEL_HARPERTOWN.name]
        vpath = tmp_path / "v.json"
        fpath = tmp_path / "f.json"
        save_plan(vplan, vpath)
        save_plan(fplan, fpath)
        v2 = load_plan(vpath)
        f2 = load_plan(fpath)
        problem = make_problem("biased", 17, seed=902)
        a = problem.initial_guess()
        b = problem.initial_guess()
        PlanExecutor().run_v(vplan, a, problem.b, 2)
        PlanExecutor().run_v(v2, b, problem.b, 2)
        np.testing.assert_array_equal(a, b)
        c = problem.initial_guess()
        PlanExecutor().run_full_mg(f2, c, problem.b, 2)


class TestCrossPricing:
    def test_native_tuning_never_loses_at_home(self, plans):
        # Plan tuned for machine M must price at most equal to the other
        # machine's plan when both run on M (the DP optimizes M's prices).
        for home in (INTEL_HARPERTOWN, SUN_NIAGARA):
            native_v, _ = plans[home.name]
            for other_name, (foreign_v, _) in plans.items():
                if other_name == home.name:
                    continue
                for i in range(native_v.num_accuracies):
                    tn = native_v.time_on(home, MAX_LEVEL, i)
                    tf = foreign_v.time_on(home, MAX_LEVEL, i)
                    assert tn <= tf * 1.0001

