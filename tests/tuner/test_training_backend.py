"""Training runs on the fastest byte-identical kernels.

A priced tune reads only the bytes its training runs leave, so the slot
tuners (V DP, full MG, heuristic strategies, ``BOSearch``), the Pareto
ablation and the iterative reference solver bind every level to the
backend ``"auto"`` resolves to, whatever the plan places there.  These
tests pin that the swap changes the work only:

* plans and audits are byte-identical with and without an accelerated
  backend on the host;
* a ``backend="numpy"`` tune trains on ``cnative`` at every level it
  relaxes, while a wall-clock tune, whose measured seconds are the
  price, runs the plan's NumPy placement and binds no ``cnative``;
* iterative reference solutions keep their NumPy bytes.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.accuracy.reference import reference_solution
from repro.kernels import get_backend
from repro.kernels.cnative import CNativeBackend
from repro.kernels.numba_backend import NumbaBackend
from repro.machines.presets import INTEL_HARPERTOWN
from repro.modeltuner import BOSearch
from repro.parallel import tasks
from repro.tuner.config import plan_to_dict
from repro.tuner.dp import VCycleTuner
from repro.tuner.executor import TrainingExecutor
from repro.tuner.full_mg import FullMGTuner
from repro.tuner.heuristics import HeuristicStrategy, tune_heuristic
from repro.tuner.pareto import ParetoTuner
from repro.tuner.plan import DEFAULT_ACCURACIES
from repro.tuner.timing import CostModelTiming, WallclockTiming
from repro.tuner.training import TrainingData
from repro.util.validation import level_of_size
from repro.workloads.distributions import make_problem

TIMING = CostModelTiming(INTEL_HARPERTOWN)

pytestmark = pytest.mark.skipif(
    not get_backend("cnative").available(), reason="cnative needs a C compiler"
)


@pytest.fixture(autouse=True)
def fresh_tuner_cache():
    """Pool-task tuners keep the executor they were built with; start
    and end every test without them."""
    tasks._TUNERS.clear()
    yield
    tasks._TUNERS.clear()


def _force_unavailable(monkeypatch, *backends) -> None:
    for backend in backends:
        monkeypatch.setattr(backend, "available", lambda self: False)
    tasks._TUNERS.clear()


@pytest.fixture
def numpy_only(monkeypatch):
    """No accelerated backend: training falls back to NumPy."""
    _force_unavailable(monkeypatch, CNativeBackend, NumbaBackend)


@pytest.fixture
def cnative_binds(monkeypatch):
    """Levels of every ``CNativeBackend.bind``, with ``cnative`` the
    fastest backend (numba, where installed, forced off)."""
    _force_unavailable(monkeypatch, NumbaBackend)
    levels: list[int] = []
    bind = CNativeBackend.bind

    def spy(self, op):
        levels.append(level_of_size(op.n))
        return bind(self, op)

    monkeypatch.setattr(CNativeBackend, "bind", spy)
    return levels


def _training(operator: str = "poisson") -> TrainingData:
    return TrainingData(instances=3, seed=0, operator=operator)


def _digests(plan) -> tuple[str, str]:
    """SHA-256 of a plan's JSON and of its audit (empty when not kept)."""
    rows = [
        [r.level, r.acc_index, r.description, repr(r.seconds), r.feasible, r.chosen]
        for r in plan.metadata.get("audit", ())
    ]
    return tuple(
        hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        for doc in (plan_to_dict(plan), rows)
    )


def _v_tune(operator: str, level: int, backend: str = "numpy"):
    return VCycleTuner(
        max_level=level, training=_training(operator), timing=TIMING, backend=backend
    ).tune()


def _full_mg_tune():
    training = _training("anisotropic")
    vplan = VCycleTuner(max_level=5, training=training, timing=TIMING).tune()
    return FullMGTuner(vplan=vplan, training=training, timing=TIMING).tune()


def _heuristic_tune():
    return tune_heuristic(
        HeuristicStrategy(sub_index=2, final_index=4),
        max_level=5,
        accuracies=DEFAULT_ACCURACIES,
        training=_training("varcoeff"),
        timing=TIMING,
    )


def _bo_tune():
    return BOSearch(max_level=5, training=_training(), pricing=INTEL_HARPERTOWN).tune()


TUNES = {
    "v/poisson/L5": lambda: _v_tune("poisson", 5),
    "v/anisotropic/L5": lambda: _v_tune("anisotropic", 5),
    "v/varcoeff/L5": lambda: _v_tune("varcoeff", 5),
    "v/poisson3d/L4": lambda: _v_tune("poisson3d", 4),
    "v/poisson/L5/cnative": lambda: _v_tune("poisson", 5, "cnative"),
    "full-mg/anisotropic/L5": _full_mg_tune,
    "heuristic/varcoeff/L5": _heuristic_tune,
    "bo/poisson/L5": _bo_tune,
}


@pytest.mark.parametrize("name", sorted(TUNES))
def test_plan_and_audit_do_not_depend_on_the_training_backend(name, monkeypatch):
    accelerated = _digests(TUNES[name]())
    _force_unavailable(monkeypatch, CNativeBackend, NumbaBackend)
    assert _digests(TUNES[name]()) == accelerated


def test_training_falls_back_to_numpy(numpy_only):
    assert TrainingExecutor()._fastest == "numpy"


def test_numpy_tune_trains_on_cnative_at_every_relaxed_level(cnative_binds):
    plan = _v_tune("poisson", 5)
    assert plan.backends == {}
    assert "backend" not in plan.metadata
    assert sorted(set(cnative_binds)) == [2, 3, 4, 5]


def test_full_mg_tune_trains_on_cnative(cnative_binds):
    training = _training("anisotropic")
    vplan = VCycleTuner(max_level=5, training=training, timing=TIMING).tune()
    cnative_binds.clear()
    FullMGTuner(vplan=vplan, training=training, timing=TIMING).tune()
    # At levels 2 and 3 the direct solve prices below every estimation
    # phase, so no candidate trains there.
    assert sorted(set(cnative_binds)) == [4, 5]


def test_pareto_ablation_trains_on_cnative(cnative_binds):
    tuner = ParetoTuner(max_level=3, training=_training(), max_sor_iters=4, max_recurse_iters=2)
    tuner.tune()
    assert sorted(set(cnative_binds)) == [2, 3]


def test_wallclock_tune_runs_its_numpy_placement(cnative_binds):
    VCycleTuner(
        max_level=3,
        training=TrainingData(instances=1, seed=23),
        timing=WallclockTiming(repeats=1),
        keep_audit=False,
    ).tune()
    assert cnative_binds == []


@pytest.mark.parametrize(
    "operator,n,cutoff",
    [("poisson", 65, 33), ("anisotropic", 65, 33), ("poisson3d", 33, None)],
)
def test_iterative_reference_keeps_its_numpy_bytes(
    operator, n, cutoff, cnative_binds, monkeypatch
):
    problem = make_problem("unbiased", n, seed=5, operator=operator)
    fast = reference_solution(problem, cutoff)
    assert level_of_size(n) in cnative_binds
    _force_unavailable(monkeypatch, CNativeBackend)
    reference = reference_solution(problem, cutoff)
    assert fast.tobytes() == reference.tobytes()
    assert np.all(np.isfinite(reference))
