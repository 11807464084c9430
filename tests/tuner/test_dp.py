"""Tests for the discrete DP autotuner — the paper's core algorithm."""

import pytest

from repro.accuracy.judge import AccuracyJudge
from repro.accuracy.reference import ReferenceSolutionCache
from repro.machines.presets import INTEL_HARPERTOWN, SUN_NIAGARA
from repro.modeltuner import BOSearch
from repro.tuner.choices import DirectChoice, EstimateChoice, SORChoice
from repro.tuner.dp import SlotTuner, VCycleTuner
from repro.tuner.executor import PlanExecutor
from repro.tuner.full_mg import FullMGTuner
from repro.tuner.spec import TuneKey, TuneSpec
from repro.tuner.timing import CostModelTiming
from repro.tuner.training import TrainingData
from repro.workloads.distributions import make_problem


class TestTunedPlanStructure:
    def test_level_one_always_direct(self, tuned_plan):
        for i in range(tuned_plan.num_accuracies):
            assert tuned_plan.choice(1, i) == DirectChoice()

    def test_all_slots_filled(self, tuned_plan):
        for level in range(1, tuned_plan.max_level + 1):
            for i in range(tuned_plan.num_accuracies):
                assert tuned_plan.choice(level, i) is not None

    def test_audit_recorded(self, tuned_plan):
        audit = tuned_plan.metadata["audit"]
        assert audit, "audit must record candidate evaluations"
        chosen = [r for r in audit if r.chosen]
        assert chosen
        # Every chosen candidate was feasible.
        assert all(r.feasible for r in chosen)

    def test_metadata_provenance(self, tuned_plan):
        md = tuned_plan.metadata
        assert md["distribution"] == "unbiased"
        assert md["profile"] == INTEL_HARPERTOWN.name
        assert md["kind"] == "multigrid-v"


class TestTunedPlanQuality:
    def test_meets_accuracy_targets_on_unseen_instances(self, tuned_plan):
        # The central promise: MULTIGRID-V_i achieves accuracy p_i.
        cache = ReferenceSolutionCache()
        executor = PlanExecutor()
        for seed in (201, 202):
            problem = make_problem("unbiased", 33, seed=seed)
            x_opt = cache.get(problem)
            for i, target in enumerate(tuned_plan.accuracies):
                x = problem.initial_guess()
                judge = AccuracyJudge(x, x_opt)
                executor.run_v(tuned_plan, x, problem.b, i)
                achieved = judge.accuracy_of(x)
                # Training is worst-case aggregated; unseen instances get a
                # small safety margin.
                assert achieved >= 0.5 * target, (
                    f"slot (5, {i}) achieved {achieved:.2e} < target {target:g}"
                )

    def test_higher_accuracy_never_cheaper(self, tuned_plan):
        # Within a level, the DP's chosen time must be monotone in the
        # accuracy target (a harder target can't have a faster plan).
        for level in range(2, tuned_plan.max_level + 1):
            times = [
                tuned_plan.time_on(INTEL_HARPERTOWN, level, i)
                for i in range(tuned_plan.num_accuracies)
            ]
            for a, b in zip(times, times[1:]):
                assert b >= a * 0.999

    def test_chosen_is_fastest_feasible_in_audit(self, tuned_plan):
        audit = tuned_plan.metadata["audit"]
        by_slot = {}
        for rec in audit:
            by_slot.setdefault((rec.level, rec.acc_index), []).append(rec)
        for (level, i), records in by_slot.items():
            feasible = [r for r in records if r.feasible]
            chosen = [r for r in records if r.chosen]
            assert len(chosen) >= 1
            best = min(feasible, key=lambda r: r.seconds)
            assert chosen[0].seconds <= best.seconds * 1.0001


class TestDeterminismAndFilters:
    def test_same_seed_same_plan(self):
        def tune():
            training = TrainingData(distribution="unbiased", instances=2, seed=5)
            return VCycleTuner(
                max_level=4,
                training=training,
                timing=CostModelTiming(INTEL_HARPERTOWN),
                keep_audit=False,
            ).tune()

        assert tune().table == tune().table

    def test_different_machines_may_differ(self):
        plans = {}
        for profile in (INTEL_HARPERTOWN, SUN_NIAGARA):
            training = TrainingData(distribution="unbiased", instances=2, seed=5)
            plans[profile.name] = VCycleTuner(
                max_level=5,
                training=training,
                timing=CostModelTiming(profile),
                keep_audit=False,
            ).tune()
        # Identical numerics, different cost landscapes: the tables should
        # differ somewhere at this scale (direct/recursion crossover moves).
        assert (
            plans[INTEL_HARPERTOWN.name].table != plans[SUN_NIAGARA.name].table
        )

    def test_candidate_filter_respected(self):
        training = TrainingData(distribution="unbiased", instances=2, seed=5)

        def no_sor(level, acc_index, choice):
            return not isinstance(choice, SORChoice)

        plan = VCycleTuner(
            max_level=4,
            training=training,
            timing=CostModelTiming(INTEL_HARPERTOWN),
            candidate_filter=no_sor,
            keep_audit=False,
        ).tune()
        for choice in plan.table.values():
            assert not isinstance(choice, SORChoice)

    def test_overrestrictive_filter_raises(self):
        training = TrainingData(distribution="unbiased", instances=1, seed=5)
        with pytest.raises(RuntimeError, match="no feasible candidate"):
            VCycleTuner(
                max_level=2,
                training=training,
                timing=CostModelTiming(INTEL_HARPERTOWN),
                candidate_filter=lambda *a: False,
            ).tune()

    def test_max_level_one_plan(self):
        training = TrainingData(distribution="unbiased", instances=1, seed=5)
        plan = VCycleTuner(
            max_level=1,
            training=training,
            timing=CostModelTiming(INTEL_HARPERTOWN),
        ).tune()
        assert plan.max_level == 1
        assert all(isinstance(c, DirectChoice) for c in plan.table.values())


class TestBudgetPruning:
    def test_budget_cap_math(self):
        cap = SlotTuner._budget_cap(unit_cost=1.0, best_time=10.0, hard_cap=100)
        assert cap == 11
        assert SlotTuner._budget_cap(0.0, 10.0, 100) == 100
        assert SlotTuner._budget_cap(1.0, float("inf"), 100) == 100
        # An estimation phase spends part of the budget first ...
        assert SlotTuner._budget_cap(1.0, 10.0, 100, est_cost=4.0) == 7
        # ... and, costing the whole budget, leaves no iteration.
        assert SlotTuner._budget_cap(1.0, 10.0, 100, est_cost=10.0) == 0

    def test_estimate_exhausting_the_budget_has_no_outcome(self, tuned_plan, shared_training):
        tuner = FullMGTuner(vplan=tuned_plan, training=shared_training)
        table = {(1, i): DirectChoice() for i in range(tuned_plan.num_accuracies)}
        plan = tuner._plan_below(table, 2)
        probe = EstimateChoice(0, SORChoice(1))
        est_cost = tuner.timing.price(plan.choice_meter(2, EstimateChoice(0, SORChoice(0))))
        assert tuner._evaluate_candidate(plan, 2, 0, probe, est_cost) is None
        assert tuner._evaluate_candidate(plan, 2, 0, probe, 2 * est_cost) is not None

    @pytest.mark.parametrize("caps", [(0, 64), (400, 0)])
    def test_v_tuner_rejects_degenerate_caps(self, caps):
        with pytest.raises(ValueError, match="must be >= 1"):
            VCycleTuner(max_level=3, max_sor_iters=caps[0], max_recurse_iters=caps[1])

    @pytest.mark.parametrize("caps", [(0, 64), (400, 0)])
    def test_full_mg_tuner_rejects_degenerate_caps(self, caps, tuned_plan, shared_training):
        with pytest.raises(ValueError, match="must be >= 1"):
            FullMGTuner(
                vplan=tuned_plan,
                training=shared_training,
                max_sor_iters=caps[0],
                max_recurse_iters=caps[1],
            )

    @pytest.mark.parametrize("caps", [(0, 64), (400, 0)])
    def test_tune_spec_rejects_degenerate_caps(self, caps):
        with pytest.raises(ValueError, match="must be >= 1"):
            TuneSpec(TuneKey(), INTEL_HARPERTOWN, max_sor_iters=caps[0], max_recurse_iters=caps[1])

    @pytest.mark.parametrize("caps", [(0, 64), (400, 0)])
    def test_model_search_rejects_degenerate_caps(self, caps):
        with pytest.raises(ValueError, match="must be >= 1"):
            BOSearch(
                max_level=3,
                pricing=INTEL_HARPERTOWN,
                max_sor_iters=caps[0],
                max_recurse_iters=caps[1],
            )
