"""Shared training: one set of runs per candidate, the same plans.

Every accuracy slot of a level reads its iteration count off the
candidate's one set of training runs (``Trajectories``) instead of
training the candidate again from fresh starts.  That must change the
work only:

* the digests in ``shared_training_digests.json`` — SHA-256 of plan JSON
  and of the full audit (level, slot, description, ``repr(seconds)``,
  feasibility, chosen) — were taken from tuners that trained every slot
  from fresh starts, and the tuners must reproduce them exactly;
* the training steps a tune applies, counted by wrapping the trained
  step, are pinned: each (level, candidate, instance) runs once, as far
  as its longest slot needs.
"""

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import pytest

import repro.tuner.dp as dp_module
import repro.tuner.full_mg as full_mg_module
from repro.machines.presets import INTEL_HARPERTOWN
from repro.modeltuner import BOSearch
from repro.tuner.config import plan_to_dict
from repro.tuner.dp import VCycleTuner
from repro.tuner.full_mg import FullMGTuner
from repro.tuner.timing import CostModelTiming
from repro.tuner.training import TrainingData

DIGESTS = json.loads((Path(__file__).parent / "shared_training_digests.json").read_text())
TIMING = CostModelTiming(INTEL_HARPERTOWN)

CASES = [
    (operator, backend, 5)
    for operator in ("poisson", "anisotropic", "varcoeff")
    for backend in ("numpy", "cnative")
] + [("poisson3d", backend, 4) for backend in ("numpy", "cnative")]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def plan_digest(plan) -> str:
    return _sha(json.dumps(plan_to_dict(plan), sort_keys=True))


def audit_digest(plan) -> str:
    rows = [
        [r.level, r.acc_index, r.description, repr(r.seconds), r.feasible, r.chosen]
        for r in plan.metadata["audit"]
    ]
    return _sha(json.dumps(rows))


def _training(operator: str) -> TrainingData:
    return TrainingData(instances=3, seed=0, operator=operator)


@lru_cache(maxsize=None)
def tuned(operator: str, backend: str, level: int):
    training = _training(operator)
    vplan = VCycleTuner(
        max_level=level, training=training, timing=TIMING, backend=backend
    ).tune()
    return vplan, FullMGTuner(vplan=vplan, training=training, timing=TIMING).tune()


@pytest.mark.parametrize("operator,backend,level", CASES)
def test_v_and_full_mg_plans_and_audits_are_unchanged(operator, backend, level):
    vplan, fplan = tuned(operator, backend, level)
    for kind, plan in (("v", vplan), ("fmg", fplan)):
        expected = DIGESTS[f"{operator}/{backend}/L{level}/{kind}"]
        assert plan_digest(plan) == expected["plan"], kind
        assert audit_digest(plan) == expected["audit"], kind


@pytest.mark.parametrize("backend", ["numpy", "cnative"])
def test_model_search_plan_is_unchanged(backend):
    plan = BOSearch(
        max_level=5, training=_training("poisson"), pricing=INTEL_HARPERTOWN, backend=backend
    ).tune()
    assert plan_digest(plan) == DIGESTS[f"bo/{backend}/L5"]["plan"]


@pytest.fixture
def step_count(monkeypatch):
    """Counts every training step the DP tuners apply, by wrapping the
    steps ``sor_step`` and ``recurse_step`` hand them."""
    count = [0]

    def counting(make_step):
        def make(*args, **kwargs):
            step = make_step(*args, **kwargs)

            def counted(x, b):
                count[0] += 1
                step(x, b)

            return counted

        return make

    sor_step, recurse_step = dp_module.sor_step, dp_module.recurse_step
    for module in (dp_module, full_mg_module):
        monkeypatch.setattr(module, "sor_step", counting(sor_step))
        monkeypatch.setattr(module, "recurse_step", counting(recurse_step))
    return count


class TestWorkBound:
    """Steps fell from 758 / 933 / 814 / 979 (V) and 813 / 725 / 713
    (full MG) when every slot trained from fresh starts."""

    @pytest.mark.parametrize(
        "operator,level,steps",
        [("poisson", 6, 271), ("anisotropic", 6, 309), ("varcoeff", 6, 291),
         ("poisson3d", 4, 351)],
    )
    def test_v_tune_steps(self, operator, level, steps, step_count):
        VCycleTuner(max_level=level, training=_training(operator), timing=TIMING).tune()
        assert step_count[0] == steps

    @pytest.mark.parametrize(
        "operator,steps", [("poisson", 280), ("anisotropic", 205), ("varcoeff", 230)]
    )
    def test_full_mg_tune_steps(self, operator, steps, step_count):
        training = _training(operator)
        vplan = VCycleTuner(max_level=5, training=training, timing=TIMING).tune()
        step_count[0] = 0
        FullMGTuner(vplan=vplan, training=training, timing=TIMING).tune()
        assert step_count[0] == steps
