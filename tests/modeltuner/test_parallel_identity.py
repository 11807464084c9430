"""Parallel model-guided tuning: serial/parallel byte-identity.

The BOSearch decides its candidate picks for a whole level *before*
any evaluation runs and folds outcomes in a fixed enumeration order,
so a process pool must change only the wall-clock — never the plan.
"""

import json

from repro.machines.presets import INTEL_HARPERTOWN
from repro.modeltuner import BOSearch
from repro.parallel import ProcessPoolTrialExecutor, SerialExecutor
from repro.tuner.config import plan_to_dict
from repro.tuner.training import TrainingData


def _tune(executor, max_level=4, seed=3):
    return BOSearch(
        max_level=max_level,
        training=TrainingData(distribution="unbiased", instances=1, seed=0),
        pricing=INTEL_HARPERTOWN,
        seed=seed,
        trial_executor=executor,
    ).tune()


def _canonical(plan) -> str:
    return json.dumps(plan_to_dict(plan), sort_keys=True)


class TestParallelDeterminism:
    def test_pool_matches_serial_byte_for_byte(self):
        serial = _tune(SerialExecutor())
        with ProcessPoolTrialExecutor(2) as pool:
            parallel = _tune(pool)
        assert _canonical(serial) == _canonical(parallel)
        assert serial.metadata["trials_used"] == parallel.metadata["trials_used"]

    def test_default_executor_is_serial(self):
        assert _canonical(_tune(None)) == _canonical(_tune(SerialExecutor()))

    def test_pool_reused_across_seeds(self):
        with ProcessPoolTrialExecutor(2) as pool:
            for seed in (0, 1):
                serial = _tune(SerialExecutor(), max_level=3, seed=seed)
                parallel = _tune(pool, max_level=3, seed=seed)
                assert _canonical(serial) == _canonical(parallel)
