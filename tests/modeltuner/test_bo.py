"""BOSearch: plan validity, budget accounting, determinism, modes."""

import dataclasses

import pytest

from repro.kernels import get_backend
from repro.kernels.cnative import CNativeBackend
from repro.machines.presets import INTEL_HARPERTOWN
from repro.modeltuner import BOSearch, CostModel, dp_trial_budget
from repro.parallel import SerialExecutor
from repro.store.sink import CollectingSink
from repro.tuner.choices import DirectChoice
from repro.tuner.config import plan_to_dict
from repro.tuner.training import TrainingData
from repro.util.validation import size_of_level


def search(max_level=4, **kwargs):
    kwargs.setdefault("profile", INTEL_HARPERTOWN)
    kwargs.setdefault(
        "training", TrainingData(distribution="unbiased", instances=1, seed=0)
    )
    return BOSearch(max_level=max_level, **kwargs)


class TestConstruction:
    def test_needs_profile_or_model(self):
        with pytest.raises(ValueError, match="profile"):
            BOSearch(max_level=4)

    def test_rejects_trivial_levels(self):
        with pytest.raises(ValueError, match="levels"):
            search(max_level=1)

    def test_rejects_zero_budgets(self):
        with pytest.raises(ValueError, match="explore"):
            search(explore=0)
        with pytest.raises(ValueError, match="explore"):
            search(exploit=0)

    def test_dp_trial_budget_formula(self):
        # Per slot: m RECURSE candidates + 1 SOR train; DIRECT is free.
        assert dp_trial_budget(6, 5) == 5 * 5 * 6
        assert dp_trial_budget(2, 5) == 30
        assert dp_trial_budget(1, 5) == 0


class TestPlanShape:
    @pytest.fixture(scope="class")
    def plan(self):
        return search(max_level=4, seed=0).tune()

    def test_all_slots_filled(self, plan):
        for level in range(1, plan.max_level + 1):
            for i in range(plan.num_accuracies):
                assert plan.choice(level, i) is not None

    def test_level_one_always_direct(self, plan):
        for i in range(plan.num_accuracies):
            assert plan.choice(1, i) == DirectChoice()

    def test_metadata_identifies_model_tuner(self, plan):
        md = plan.metadata
        assert md["tuner"] == "model"
        assert md["search_seed"] == 0
        assert md["kind"] == "multigrid-v"
        assert md["trial_budget_dp"] == dp_trial_budget(4, plan.num_accuracies)
        assert md["budget_fraction"] == pytest.approx(
            md["trials_used"] / md["trial_budget_dp"], abs=1e-4
        )

    def test_spends_a_fraction_of_the_dp_budget(self, plan):
        used = plan.metadata["trials_used"]
        assert 0 < used < plan.metadata["trial_budget_dp"]
        assert plan.metadata["budget_fraction"] <= 0.30

    def test_simulated_cost_finite_positive(self, plan):
        cost = plan.time_on(INTEL_HARPERTOWN, plan.max_level, plan.num_accuracies - 1)
        assert cost > 0.0


class TestDeterminism:
    def test_same_seed_same_plan(self):
        first = plan_to_dict(search(max_level=3, seed=7).tune())
        second = plan_to_dict(search(max_level=3, seed=7).tune())
        assert first == second

    def test_seed_in_metadata_tracks_argument(self):
        plan = search(max_level=3, seed=11).tune()
        assert plan.metadata["search_seed"] == 11


class TestModelMode:
    def test_model_only_search_builds_valid_plan(self):
        # The cold-machine path: no trusted profile, a fitted (here
        # trivially empty) model prices everything.
        model = CostModel.fit([], INTEL_HARPERTOWN)
        plan = search(max_level=3, profile=None, model=model).tune()
        assert plan.metadata["tuner"] == "model"
        assert plan.metadata["model_fingerprint"] == model.fingerprint()
        for level in range(1, 4):
            for i in range(plan.num_accuracies):
                assert plan.choice(level, i) is not None

    def test_empty_model_reproduces_profile_search(self):
        # No laws + calibration 1.0 prices exactly like the analytic
        # profile, so the searches walk identical landscapes.
        model = CostModel.fit([], INTEL_HARPERTOWN)
        with_profile = search(max_level=3, seed=5).tune()
        with_model = search(max_level=3, seed=5, profile=None, model=model).tune()
        assert [
            with_model.choice(level, i)
            for level in range(1, 4)
            for i in range(with_model.num_accuracies)
        ] == [
            with_profile.choice(level, i)
            for level in range(1, 4)
            for i in range(with_profile.num_accuracies)
        ]


class TestSink:
    def test_emits_one_tuning_trial(self):
        sink = CollectingSink()
        search(max_level=3, sink=sink).tune()
        assert len(sink.trials) == 1
        trial = sink.trials[0]
        assert trial.kind == "multigrid-v"
        assert trial.tuner == "model"
        assert trial.simulated_cost > 0.0


class _Recorder(SerialExecutor):
    """Serial executor that keeps every (task, outcome) pair."""

    def __init__(self):
        self.pairs = []

    def map(self, fn, tasks):
        tasks = list(tasks)
        outcomes = super().map(fn, tasks)
        self.pairs.extend(zip(tasks, outcomes))
        return outcomes


class TestEvaluation:
    def test_profile_prices_evaluation_when_a_model_steers(self):
        # A model priced at 3x the profile steers acquisition only: every
        # evaluated candidate is still priced by the profile, exactly as
        # the parent prices placement, metadata and the stored cost.
        recorder = _Recorder()
        search(
            max_level=3,
            model=CostModel(base=INTEL_HARPERTOWN, calibration=3.0),
            trial_executor=recorder,
        ).tune()
        direct = [
            (task.level, outcome.seconds)
            for task, outcome in recorder.pairs
            if outcome.description == DirectChoice().describe()
        ]
        assert direct
        for level, seconds in direct:
            assert seconds == INTEL_HARPERTOWN.op_time("direct", size_of_level(level))

    def test_cnative_search_trains_on_cnative_kernels(self, monkeypatch):
        if not get_backend("cnative").available():
            pytest.skip("cnative backend unavailable on this host")
        calls = []
        bind = CNativeBackend.bind

        def spying_bind(self, op):
            kernels = bind(self, op)

            def sor_sweeps(*args, **kwargs):
                calls.append(op.n)
                return kernels.sor_sweeps(*args, **kwargs)

            return dataclasses.replace(kernels, sor_sweeps=sor_sweeps)

        monkeypatch.setattr(CNativeBackend, "bind", spying_bind)
        # A training seed no other test uses: a fresh spec, so the tuner
        # (and its kernel bindings) is built while the spy is in place.
        # Levels >= 5 place cnative on this profile.
        plan = search(
            max_level=5,
            backend="cnative",
            training=TrainingData(distribution="unbiased", instances=1, seed=4242),
        ).tune()
        assert "cnative" in plan.backends.values()
        assert calls, "recursion training ran no cnative relaxation"
