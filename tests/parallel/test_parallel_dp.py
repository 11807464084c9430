"""Parallel DP tuning must reproduce serial tunes exactly.

Because slot tasks are pure, deterministically seeded data and workers
run the serial tuner's own per-slot evaluation, pruning included, a
process-pool tune selects bit-identical plans and does exactly the
serial tune's training work.  These tests pin that for the V-cycle
tuner, the full-MG tuner, candidate filters, the audit, and the
registry/core-API ``jobs=`` wiring.
"""

import functools
import io
import pickle
import types

import pytest

import repro.tuner.dp as dp_module
import repro.tuner.full_mg as full_mg_module
from repro.core import autotune_cached
from repro.machines.presets import INTEL_HARPERTOWN, SUN_NIAGARA
from repro.parallel import (
    ProcessPoolTrialExecutor,
    SerialExecutor,
    SlotTask,
    TrialExecutor,
)
from repro.parallel.tasks import evaluate_slot
from repro.store import TrialDB
from repro.tuner.choices import DirectChoice, RecurseChoice
from repro.tuner.config import plan_to_dict
from repro.tuner.dp import VCycleTuner
from repro.tuner.full_mg import FullMGTuner
from repro.tuner.spec import TuneSpec
from repro.tuner.timing import CostModelTiming, WallclockTiming
from repro.tuner.training import TrainingData

MAX_LEVEL = 4


def _training(operator=None):
    return TrainingData(distribution="unbiased", instances=2, seed=3, operator=operator)


def _tune_v(executor, profile=INTEL_HARPERTOWN, candidate_filter=None, operator=None):
    return VCycleTuner(
        max_level=MAX_LEVEL,
        training=_training(operator),
        timing=CostModelTiming(profile),
        candidate_filter=candidate_filter,
        trial_executor=executor,
    ).tune()


def _tune_full_mg(executor, vplan, operator=None):
    return FullMGTuner(
        vplan=vplan,
        training=_training(operator),
        timing=CostModelTiming(INTEL_HARPERTOWN),
        trial_executor=executor,
    ).tune(MAX_LEVEL)


def _strategy_filter(sub_index):
    """A ``tune_heuristic``-style filter: direct, or recursion into one
    fixed sub-accuracy only."""

    def allowed(level, acc_index, choice):
        if isinstance(choice, DirectChoice):
            return True
        return isinstance(choice, RecurseChoice) and choice.sub_accuracy == sub_index

    return allowed


class InlineParallelExecutor(TrialExecutor):
    """Claims two jobs, so the tuners take their parallel drivers, but
    maps inline: the tasks' training work runs in this process, where
    it can be counted."""

    jobs = 2

    def __init__(self):
        self.tasks = []

    def map(self, fn, tasks):
        batch = list(tasks)
        self.tasks.extend(batch)
        return [fn(task) for task in batch]


@pytest.fixture
def step_count(monkeypatch):
    """Counts every training step the tuners apply, by wrapping the
    step ``iterations_to_accuracy`` is handed."""
    count = [0]

    def counting(original):
        def wrapped(step, *args, **kwargs):
            def counted(x, b):
                count[0] += 1
                step(x, b)

            return original(counted, *args, **kwargs)

        return wrapped

    for module in (dp_module, full_mg_module):
        monkeypatch.setattr(
            module, "iterations_to_accuracy", counting(module.iterations_to_accuracy)
        )
    return count


@pytest.fixture(scope="module")
def pool():
    with ProcessPoolTrialExecutor(2) as executor:
        yield executor


class TestVCycleDeterminism:
    def test_serial_executor_matches_default(self):
        assert plan_to_dict(_tune_v(None)) == plan_to_dict(_tune_v(SerialExecutor()))

    def test_pool_matches_serial(self, pool):
        assert plan_to_dict(_tune_v(None)) == plan_to_dict(_tune_v(pool))

    def test_pool_matches_serial_on_other_machine(self, pool):
        serial = _tune_v(None, profile=SUN_NIAGARA)
        parallel = _tune_v(pool, profile=SUN_NIAGARA)
        assert plan_to_dict(serial) == plan_to_dict(parallel)

    def test_candidate_filter_respected(self, pool):
        def no_direct_above_level_1(level, acc_index, choice):
            return level == 1 or not isinstance(choice, DirectChoice)

        serial = _tune_v(None, candidate_filter=no_direct_above_level_1)
        parallel = _tune_v(pool, candidate_filter=no_direct_above_level_1)
        assert plan_to_dict(serial) == plan_to_dict(parallel)
        assert not any(
            isinstance(c, DirectChoice)
            for (level, _), c in parallel.table.items()
            if level > 1
        )

    def test_strategy_filter_matches_serial(self, pool):
        serial = _tune_v(None, candidate_filter=_strategy_filter(1))
        parallel = _tune_v(pool, candidate_filter=_strategy_filter(1))
        assert plan_to_dict(serial) == plan_to_dict(parallel)
        assert all(
            isinstance(c, DirectChoice) or c.sub_accuracy == 1
            for c in parallel.table.values()
        )

    def test_audit_records_cover_all_slots(self, pool):
        plan = _tune_v(pool)
        audit = plan.metadata["audit"]
        slots = {(rep.level, rep.acc_index) for rep in audit}
        m = plan.num_accuracies
        assert slots == {
            (level, i) for level in range(2, MAX_LEVEL + 1) for i in range(m)
        }
        chosen = [rep for rep in audit if rep.chosen]
        assert len(chosen) >= (MAX_LEVEL - 1) * m

    def test_wallclock_timing_rejected(self, pool):
        tuner = VCycleTuner(
            max_level=3,
            training=_training(),
            timing=WallclockTiming(repeats=1),
            trial_executor=pool,
        )
        with pytest.raises(NotImplementedError, match="CostModelTiming"):
            tuner.tune()


class TestFullMGDeterminism:
    def test_pool_matches_serial(self, pool):
        vplan = _tune_v(None)
        assert plan_to_dict(_tune_full_mg(None, vplan)) == plan_to_dict(
            _tune_full_mg(pool, vplan)
        )


@pytest.mark.parametrize("operator", ["poisson", "anisotropic(epsilon=0.01)"])
class TestWorkBound:
    """A parallel tune prunes as the serial one does: it applies exactly
    as many training steps and records the same audit."""

    def test_v_tune_applies_the_serial_steps(self, operator, step_count):
        serial = _tune_v(None, operator=operator)
        serial_steps = step_count[0]
        step_count[0] = 0
        executor = InlineParallelExecutor()
        parallel = _tune_v(executor, operator=operator)
        assert len(executor.tasks) == (MAX_LEVEL - 1) * serial.num_accuracies
        assert serial_steps > 0
        assert step_count[0] == serial_steps
        assert parallel.metadata["audit"] == serial.metadata["audit"]
        assert plan_to_dict(parallel) == plan_to_dict(serial)

    def test_full_mg_tune_applies_the_serial_steps(self, operator, step_count):
        vplan = _tune_v(None, operator=operator)
        step_count[0] = 0
        serial = _tune_full_mg(None, vplan, operator)
        serial_steps = step_count[0]
        step_count[0] = 0
        executor = InlineParallelExecutor()
        parallel = _tune_full_mg(executor, vplan, operator)
        assert len(executor.tasks) == (MAX_LEVEL - 1) * serial.num_accuracies
        assert serial_steps > 0
        assert step_count[0] == serial_steps
        assert parallel.metadata["audit"] == serial.metadata["audit"]
        assert plan_to_dict(parallel) == plan_to_dict(serial)


class TestSlotTask:
    def _v_task(self, candidate_filter=None):
        tuner = VCycleTuner(
            max_level=MAX_LEVEL,
            training=_training(),
            timing=CostModelTiming(INTEL_HARPERTOWN),
            candidate_filter=candidate_filter,
        )
        plan = tuner.tune()
        table = tuple(sorted((k, c) for k, c in plan.table.items() if k[0] < MAX_LEVEL))
        return SlotTask(
            TuneSpec.of(tuner), MAX_LEVEL, table, 2, tuner._slot_candidates(MAX_LEVEL, 2)
        )

    def test_pickle_round_trip_holds_no_callable(self):
        task = self._v_task(_strategy_filter(1))
        shipped = []

        class Recorder(pickle.Pickler):
            def reducer_override(self, obj):
                if isinstance(
                    obj,
                    (types.FunctionType, types.MethodType, types.BuiltinFunctionType,
                     functools.partial),
                ):
                    shipped.append(obj)
                return NotImplemented

        buffer = io.BytesIO()
        Recorder(buffer).dump(task)
        assert shipped == []
        restored = pickle.loads(buffer.getvalue())
        assert restored == task
        assert evaluate_slot(restored) == evaluate_slot(task)

    def test_shipped_candidates_are_the_filtered_order(self):
        task = self._v_task(_strategy_filter(1))
        assert task.candidates == (("direct", None), ("recurse", 1))


class TestJobsWiring:
    def test_autotune_cached_jobs_matches_serial(self):
        kwargs = dict(
            max_level=3, machine="intel", instances=1, seed=7, allow_nearest=False
        )
        serial = autotune_cached(store=TrialDB(":memory:"), jobs=1, **kwargs)
        parallel = autotune_cached(store=TrialDB(":memory:"), jobs=2, **kwargs)
        assert plan_to_dict(serial) == plan_to_dict(parallel)

    def test_autotune_cached_full_mg_jobs_matches_serial(self):
        kwargs = dict(
            max_level=3,
            machine="amd",
            instances=1,
            seed=7,
            kind="full-multigrid",
            allow_nearest=False,
        )
        serial = autotune_cached(store=TrialDB(":memory:"), jobs=1, **kwargs)
        parallel = autotune_cached(store=TrialDB(":memory:"), jobs=2, **kwargs)
        assert plan_to_dict(serial) == plan_to_dict(parallel)
