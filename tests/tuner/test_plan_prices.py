"""Tuner prices are plan prices.

The tuners price every candidate from the meters of the plan they are
building, so each chosen audit record must carry exactly the seconds the
finished plan prices for its slot — equality, not closeness.
"""

import pytest

from repro.machines.presets import INTEL_HARPERTOWN
from repro.tuner.dp import VCycleTuner
from repro.tuner.full_mg import FullMGTuner
from repro.tuner.timing import CostModelTiming
from repro.tuner.training import TrainingData


def _assert_chosen_prices_equal_plan_prices(plan) -> None:
    chosen = [record for record in plan.metadata["audit"] if record.chosen]
    assert len(chosen) == (plan.max_level - 1) * plan.num_accuracies
    for record in chosen:
        priced = plan.time_on(INTEL_HARPERTOWN, record.level, record.acc_index)
        assert record.seconds == priced, (record, priced)


def _tune(operator: str, backend: str, max_level: int, full_mg: bool):
    training = TrainingData(distribution="unbiased", instances=1, seed=0, operator=operator)
    timing = CostModelTiming(INTEL_HARPERTOWN)
    vplan = VCycleTuner(
        max_level=max_level, training=training, timing=timing, backend=backend
    ).tune()
    if not full_mg:
        return [vplan]
    return [vplan, FullMGTuner(vplan=vplan, training=training, timing=timing).tune()]


@pytest.mark.parametrize("operator", ["poisson", "anisotropic"])
@pytest.mark.parametrize("backend", ["numpy", "cnative"])
def test_v_and_full_mg_chosen_prices_equal_plan_prices(operator, backend):
    for plan in _tune(operator, backend, 5, full_mg=True):
        _assert_chosen_prices_equal_plan_prices(plan)


def test_3d_v_chosen_prices_equal_plan_prices():
    (plan,) = _tune("poisson3d", "numpy", 4, full_mg=False)
    _assert_chosen_prices_equal_plan_prices(plan)
