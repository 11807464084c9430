"""Property-based tests (hypothesis) for the model tuner.

Pins the two contracts the subsystem is built on: the budgeted search
is a pure function of its seed (byte-identical plans on replay, valid
plans for *any* seed), and a cost model fitted from arbitrary
well-formed profiler cells predicts finite, strictly positive seconds
for every op it can be asked to price.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machines.presets import INTEL_HARPERTOWN
from repro.modeltuner import BOSearch, CostModel
from repro.obs.profile import SolveProfiler
from repro.tuner.choices import DirectChoice
from repro.tuner.config import plan_to_dict
from repro.tuner.training import TrainingData

#: Base op families as a SolveProfiler records them (direct solves land
#: under the sentinel backend "direct").
PROFILED_OPS = ("relax", "residual", "restrict", "interpolate", "direct")

cells = st.lists(
    st.tuples(
        st.integers(min_value=2, max_value=8),  # level
        st.sampled_from(PROFILED_OPS),
        st.sampled_from(("numpy", "cnative", "numba")),
        st.floats(1e-9, 10.0, allow_nan=False, allow_infinity=False),
        st.integers(min_value=1, max_value=50),  # call count
    ),
    max_size=30,
)


def _search(seed: int, max_level: int = 3) -> BOSearch:
    return BOSearch(
        max_level=max_level,
        training=TrainingData(distribution="unbiased", instances=1, seed=0),
        pricing=INTEL_HARPERTOWN,
        seed=seed,
    )


class TestSearchDeterminism:
    @given(seed=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=8, deadline=None)
    def test_same_seed_byte_identical_plan(self, seed):
        first = plan_to_dict(_search(seed).tune())
        second = plan_to_dict(_search(seed).tune())
        assert first == second

    @given(seed=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=8, deadline=None)
    def test_any_seed_yields_valid_plan(self, seed):
        plan = _search(seed).tune()
        for i in range(plan.num_accuracies):
            assert plan.choice(1, i) == DirectChoice()
        for level in range(1, plan.max_level + 1):
            for i in range(plan.num_accuracies):
                assert plan.choice(level, i) is not None
        cost = plan.time_on(
            INTEL_HARPERTOWN, plan.max_level, plan.num_accuracies - 1
        )
        assert math.isfinite(cost) and cost > 0.0
        assert 0 < plan.metadata["trials_used"] < plan.metadata["trial_budget_dp"]


class TestModelPredictionProperties:
    @given(data=cells, ndim=st.sampled_from([2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_fit_from_arbitrary_cells_predicts_finite_positive(self, data, ndim):
        prof = SolveProfiler()
        for level, op, backend, mean_s, count in data:
            for _ in range(count):
                prof.record(level, op, backend, mean_s)
        model = CostModel.fit(prof.to_training_rows(ndim), INTEL_HARPERTOWN)
        for op in model.known_ops():
            for n in (5, 33, 257):
                value = model.op_seconds(op, n)
                assert math.isfinite(value) and value > 0.0

    @given(data=cells)
    @settings(max_examples=20, deadline=None)
    def test_fit_round_trips_through_json(self, data):
        prof = SolveProfiler()
        for level, op, backend, mean_s, count in data:
            prof.record(level, op, backend, mean_s * count)
        model = CostModel.fit(prof.to_training_rows(2), INTEL_HARPERTOWN)
        clone = CostModel.from_json(model.to_json())
        assert clone.fingerprint() == model.fingerprint()
        for op in ("relax", "direct", "relax@cnative"):
            assert clone.op_seconds(op, 65) == model.op_seconds(op, 65)
