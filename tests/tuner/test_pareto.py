"""Tests for the full Pareto DP (section 2.2)."""

import math

import pytest

from repro.accuracy.judge import AccuracyJudge
from repro.accuracy.reference import ReferenceSolutionCache
from repro.machines.presets import INTEL_HARPERTOWN
from repro.tuner.choices import DirectChoice, RecurseChoice, SORChoice
from repro.tuner.executor import PlanExecutor
from repro.tuner.pareto import (
    ChoiceChain,
    ParetoPoint,
    ParetoTuner,
    pareto_front,
)
from repro.tuner.timing import CostModelTiming
from repro.tuner.training import TrainingData
from repro.workloads.distributions import make_problem


def P(seconds: float, accuracy: float) -> ParetoPoint:
    return ParetoPoint(ChoiceChain((DirectChoice(),)), seconds, accuracy)


class TestParetoFront:
    def test_removes_dominated(self):
        pts = [P(1.0, 10.0), P(2.0, 5.0), P(0.5, 20.0)]
        front = pareto_front(pts)
        # (0.5, 20) dominates everything else.
        assert len(front) == 1
        assert front[0].seconds == 0.5

    def test_keeps_tradeoff_curve(self):
        pts = [P(1.0, 10.0), P(2.0, 100.0), P(3.0, 1000.0)]
        front = pareto_front(pts)
        assert len(front) == 3
        assert [p.seconds for p in front] == [1.0, 2.0, 3.0]

    def test_cap_keeps_endpoints(self):
        pts = [P(float(i), 10.0**i) for i in range(1, 11)]
        front = pareto_front(pts, max_size=4)
        assert len(front) <= 4
        assert front[0].seconds == 1.0
        assert front[-1].seconds == 10.0

    def test_empty_ok(self):
        assert pareto_front([]) == []

    def test_front_is_nondominated(self):
        import itertools

        pts = [P(1.0, 10), P(1.5, 8), P(2.0, 50), P(2.5, 40), P(3.0, 60)]
        front = pareto_front(pts)
        for a, b in itertools.permutations(front, 2):
            assert not (a.seconds <= b.seconds and a.accuracy >= b.accuracy)


class TestChoiceChain:
    def test_meter_composition(self):
        chain = ChoiceChain((RecurseChoice(0, 2), DirectChoice()))
        m = chain.plan(3).unit_meter(3, 0)  # fine size 9
        assert m.counts[("relax", 9)] == 4
        assert m.counts[("direct", 5)] == 2

    def test_plan_pads_below_the_chain_with_direct(self):
        plan = ChoiceChain((SORChoice(3),)).plan(3)
        assert plan.choice(3, 0) == SORChoice(3)
        assert plan.choice(2, 0) == plan.choice(1, 0) == DirectChoice()

    def test_direct_plan_solves_exactly(self):
        problem = make_problem("unbiased", 9, seed=501)
        x = problem.initial_guess()
        PlanExecutor().run_v(ChoiceChain((DirectChoice(),)).plan(3), x, problem.b, 0)
        cache = ReferenceSolutionCache()
        judge = AccuracyJudge(problem.initial_guess(), cache.get(problem))
        assert judge.accuracy_of(x) > 1e10

    def test_describe(self):
        chain = ChoiceChain((RecurseChoice(0, 2), SORChoice(3)))
        assert chain.describe() == "(recurse[sor^3])^2"
        assert ChoiceChain((DirectChoice(),)).describe() == "direct"


class TestParetoTuner:
    @pytest.fixture(scope="class")
    def sets(self):
        tuner = ParetoTuner(
            max_level=3,
            training=TrainingData(distribution="unbiased", instances=2, seed=9),
            timing=CostModelTiming(INTEL_HARPERTOWN),
            max_set_size=8,
            max_sor_iters=24,
            max_recurse_iters=3,
        )
        return tuner.tune()

    def test_base_level_single_direct(self, sets):
        assert len(sets[1]) == 1
        assert sets[1][0].algorithm == (DirectChoice(),)
        assert sets[1][0].accuracy == math.inf

    def test_sets_capped(self, sets):
        for level, front in sets.items():
            assert len(front) <= 8, f"level {level} front too large"

    def test_fronts_sorted_and_nondominated(self, sets):
        for front in sets.values():
            times = [p.seconds for p in front]
            accs = [p.accuracy for p in front]
            assert times == sorted(times)
            assert accs == sorted(accs)

    def test_members_reproduce_claimed_accuracy(self, sets):
        # Execute a front member on the training distribution and check the
        # measured accuracy is in the ballpark of the recorded worst case.
        problem = make_problem("unbiased", 9, seed=9_007)
        cache = ReferenceSolutionCache()
        x_opt = cache.get(problem)
        for point in sets[3][:4]:
            if not math.isfinite(point.accuracy):
                continue
            x = problem.initial_guess()
            judge = AccuracyJudge(x, x_opt)
            PlanExecutor().run_v(point.algorithm.plan(3), x, problem.b, 0)
            assert judge.accuracy_of(x) >= 0.2 * point.accuracy
