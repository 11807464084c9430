"""Shared training: one set of runs per distinct step, the same plans.

Every accuracy slot of a level reads its iteration count off one set of
training runs (``Trajectories``) per distinct step instead of training
each candidate again from fresh starts; candidates whose steps have the
same choice tree (``call_key``) share the runs.  That must change the
work only:

* the digests in ``shared_training_digests.json`` — SHA-256 of plan JSON
  and of the full audit (level, slot, description, ``repr(seconds)``,
  feasibility, chosen) — were taken from tuners that trained every slot
  from fresh starts, and the tuners must reproduce them exactly;
* the training steps a tune applies, counted by wrapping the trained
  step, are pinned: each (level, distinct step, instance) runs once, as
  far as its longest slot needs;
* steps share runs only when their keys say they compute the same thing.
"""

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import pytest

import repro.tuner.dp as dp_module
from repro.machines.presets import INTEL_HARPERTOWN
from repro.modeltuner import BOSearch
from repro.tuner.choices import DirectChoice, EstimateChoice, RecurseChoice, SORChoice
from repro.tuner.config import plan_to_dict
from repro.tuner.dp import VCycleTuner, recurse_step
from repro.tuner.full_mg import FullMGTuner
from repro.tuner.plan import DEFAULT_ACCURACIES, TunedFullMGPlan, TunedVPlan
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
    steps ``sor_step`` and ``recurse_step`` hand them (both tuners build
    their steps in ``repro.tuner.dp``)."""
    count = [0]

    def counting(make_step):
        def make(*args, **kwargs):
            step = make_step(*args, **kwargs)

            def counted(x, b):
                count[0] += 1
                step(x, b)

            return counted

        return make

    monkeypatch.setattr(dp_module, "sor_step", counting(dp_module.sor_step))
    monkeypatch.setattr(dp_module, "recurse_step", counting(dp_module.recurse_step))
    return count


class TestWorkBound:
    """Steps fell from 758 / 933 / 814 / 979 (V) and 813 / 725 / 713
    (full MG) when every slot trained from fresh starts, to 271 / 309 /
    291 / 351 and 280 / 205 / 230 when every candidate trained once, and
    to 167 / 169 / 167 / 273 and 26 / 17 / 22 now that every distinct
    step trains once."""

    @pytest.mark.parametrize(
        "operator,level,steps",
        [("poisson", 6, 167), ("anisotropic", 6, 169), ("varcoeff", 6, 167),
         ("poisson3d", 4, 273)],
    )
    def test_v_tune_steps(self, operator, level, steps, step_count):
        VCycleTuner(max_level=level, training=_training(operator), timing=TIMING).tune()
        assert step_count[0] == steps

    @pytest.mark.parametrize(
        "operator,steps", [("poisson", 26), ("anisotropic", 17), ("varcoeff", 22)]
    )
    def test_full_mg_tune_steps(self, operator, steps, step_count):
        training = _training(operator)
        vplan = VCycleTuner(max_level=5, training=training, timing=TIMING).tune()
        step_count[0] = 0
        FullMGTuner(vplan=vplan, training=training, timing=TIMING).tune()
        assert step_count[0] == steps


# -- the run key ---------------------------------------------------------------

DIRECT = DirectChoice()


def _table(rows: dict[int, list]) -> dict:
    """A plan table with ``rows[level]`` as its five slots at each level
    above 1 (level 1 is direct)."""
    table = {(1, i): DIRECT for i in range(len(DEFAULT_ACCURACIES))}
    for level, row in rows.items():
        table.update({(level, i): choice for i, choice in enumerate(row)})
    return table


def _vplan(rows: dict[int, list]) -> TunedVPlan:
    return TunedVPlan(DEFAULT_ACCURACIES, max(rows), _table(rows))


class TestRunKey:
    """Equal keys share one ``Trajectories``; trees that differ anywhere
    below never do."""

    @staticmethod
    def _tuner(vplan: TunedVPlan):
        """A V tuner for the level above ``vplan``, and its runs of a probe
        on ``vplan``."""
        level = vplan.max_level + 1
        tuner = VCycleTuner(max_level=level, training=_training("poisson"), timing=TIMING)
        return tuner, lambda probe: tuner._trajectories(vplan, level, probe)

    def test_direct_sub_accuracies_share(self):
        vplan = _vplan({2: [SORChoice(2), SORChoice(3), DIRECT, DIRECT, RecurseChoice(0, 1)]})
        _, runs = self._tuner(vplan)
        assert runs(RecurseChoice(2, 1)) is runs(RecurseChoice(3, 1))
        assert runs(RecurseChoice(3, 1)) is not runs(RecurseChoice(4, 1))

    def test_equal_recurse_trees_share_and_compute_alike(self):
        # Level-3 slots 1 and 2 are recurse(x2) over level-2 slots 0 and
        # 1, which are both sor(x3): the same tree under two labels.
        vplan = _vplan({
            2: [SORChoice(3), SORChoice(3), DIRECT, DIRECT, DIRECT],
            3: [SORChoice(5), RecurseChoice(0, 2), RecurseChoice(1, 2), DIRECT, DIRECT],
        })
        tuner, runs = self._tuner(vplan)
        assert vplan.call_key(3, 1) == vplan.call_key(3, 2)
        assert runs(RecurseChoice(1, 1)) is runs(RecurseChoice(2, 1))
        # The key's promise: both labels step the same start to the same bytes.
        x, b = tuner.training.at_level(4).fresh_starts()[0]
        out = []
        for j in (1, 2):
            y = x.copy()
            recurse_step(tuner._executor, vplan, 4, j)(y, b)
            out.append(y.tobytes())
        assert out[0] == out[1]

    @pytest.mark.parametrize(
        "row3,row2",
        [
            # recurse(0, x1) vs recurse(1, x1) over different level-2 slots
            ([RecurseChoice(0, 1), RecurseChoice(1, 1)], [SORChoice(2), DIRECT]),
            # recurse(j, x1) vs recurse(j, x2)
            ([RecurseChoice(0, 1), RecurseChoice(0, 2)], [DIRECT, DIRECT]),
            # sor(x2) vs sor(x3)
            ([SORChoice(2), SORChoice(3)], [DIRECT, DIRECT]),
            # direct vs sor
            ([DIRECT, SORChoice(1)], [DIRECT, DIRECT]),
        ],
        ids=["recurse-over-different-slots", "recurse-x1-vs-x2", "sor-x2-vs-x3",
             "direct-vs-sor"],
    )
    def test_different_trees_never_share(self, row3, row2):
        vplan = _vplan({2: [*row2, DIRECT, DIRECT, DIRECT], 3: [*row3, DIRECT, DIRECT, DIRECT]})
        _, runs = self._tuner(vplan)
        assert vplan.call_key(3, 0) != vplan.call_key(3, 1)
        assert runs(RecurseChoice(0, 1)) is not runs(RecurseChoice(1, 1))
        assert runs(SORChoice(1)) is not runs(RecurseChoice(0, 1))

    def test_full_mg_estimates_share_only_equal_trees(self):
        vplan = _vplan({
            2: [SORChoice(2), DIRECT, DIRECT, DIRECT, DIRECT],
            3: [SORChoice(4), RecurseChoice(0, 1), DIRECT, RecurseChoice(1, 1),
                RecurseChoice(1, 1)],
            4: [DIRECT] * 5,
        })
        # Full-MG level-3 slots 0 and 1 estimate over level-2 slots that
        # differ; slots 2 and 3 are direct; slot 4 estimates like slot 0
        # but solves with sor(x1).
        table = _table({
            2: [DIRECT, EstimateChoice(0, SORChoice(1)), DIRECT, DIRECT, DIRECT],
            3: [EstimateChoice(0, SORChoice(2)), EstimateChoice(1, SORChoice(2)), DIRECT,
                DIRECT, EstimateChoice(0, SORChoice(1))],
        })
        plan = TunedFullMGPlan(DEFAULT_ACCURACIES, 3, table, vplan)
        tuner = FullMGTuner(vplan=vplan, training=_training("poisson"), timing=TIMING)

        def runs(j, probe):
            return tuner._trajectories(plan, 4, EstimateChoice(j, probe))

        sor = SORChoice(1)
        assert runs(0, sor) is not runs(1, sor)
        assert runs(2, sor) is runs(3, sor)
        assert runs(0, sor) is not runs(4, sor)
        assert runs(2, sor) is not runs(4, sor)
        # Solver variants: V-plan level-3 slots 3 and 4 are the same tree.
        assert runs(2, RecurseChoice(3, 1)) is runs(3, RecurseChoice(4, 1))
        assert runs(2, RecurseChoice(1, 1)) is not runs(2, RecurseChoice(3, 1))
        assert runs(2, sor) is not runs(2, RecurseChoice(2, 1))
        # One set of post-estimate states per distinct estimate tree.
        assert len(tuner._starts) == 4

    def test_model_search_applies_each_step_once(self, monkeypatch):
        # At level 2 every level-1 slot is direct, so every RECURSE_j
        # pick trains the same step: no (step, state) may run twice.
        applied, picked = [], set()

        def recording(make_step, kind):
            def make(*args, **kwargs):
                step = make_step(*args, **kwargs)

                def recorded(x, b):
                    applied.append((kind, x.tobytes(), b.tobytes()))
                    step(x, b)

                return recorded

            return make

        monkeypatch.setattr(dp_module, "sor_step", recording(dp_module.sor_step, "sor"))
        monkeypatch.setattr(
            dp_module, "recurse_step", recording(dp_module.recurse_step, "recurse")
        )
        evaluate = VCycleTuner._evaluate_candidate

        def evaluating(self, plan, level, acc_index, probe, best_time):
            picked.add(probe)
            return evaluate(self, plan, level, acc_index, probe, best_time)

        monkeypatch.setattr(VCycleTuner, "_evaluate_candidate", evaluating)
        BOSearch(max_level=2, training=_training("poisson"), pricing=INTEL_HARPERTOWN).tune()
        assert len({p.sub_accuracy for p in picked if isinstance(p, RecurseChoice)}) >= 2
        assert applied and len(set(applied)) == len(applied)
