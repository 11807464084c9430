"""Picklable trial tasks for the tuners, and their worker functions.

Pool work comes in two shapes, and both carry the
:class:`~repro.tuner.spec.TuneSpec` of the tune they belong to — pure
data whose deterministic training seed makes a re-run in another
process reproduce the exact training instances:

* :class:`CandidateTask` — one V-cycle candidate for one (level,
  accuracy) slot, evaluated on the plan tuned through the level below
  (rebuilt from the task's table).
  The DP (:class:`~repro.tuner.dp.VCycleTuner`) and the model-guided
  :class:`~repro.modeltuner.bo.BOSearch` both use it;
* :class:`EstimateTask` — every solver variant of one full-MG
  ESTIMATE_j, for :class:`~repro.tuner.full_mg.FullMGTuner`, on the
  full-MG plan tuned through the level below.

A worker rebuilds the tuner with :meth:`TuneSpec.build` — the function
serial tunes use — and runs the *same* single-candidate evaluation code
the serial tuner runs, on the same plan with the same per-level kernel
backends, so trained iteration counts and priced seconds are bit-identical to a
serial tune.  The only difference is pruning: workers evaluate with an
infinite budget, and any candidate the serial tuner would have pruned
prices strictly worse than the serial winner, so per-slot selection —
done in the parent, folding outcomes in serial enumeration order with a
strict ``<`` — picks exactly the same plan.

Worker processes cache the rebuilt tuners (and with them training
instances and reference solutions) by spec, so reconstruction is paid
once per worker, not once per task; direct-solver factorizations live
on the process's shared per-size operators.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

from repro.tuner.choices import Choice
from repro.tuner.config import plan_from_dict, plan_to_dict
from repro.tuner.dp import (
    CandidateOutcome,
    CandidateReport,
    VCycleTuner,
    probe_choice,
    select_fastest,
)
from repro.tuner.full_mg import FullMGTuner
from repro.tuner.plan import TunedVPlan
from repro.tuner.spec import TuneSpec

__all__ = [
    "CandidateTask",
    "EstimateTask",
    "evaluate_candidate",
    "evaluate_estimate",
    "tune_fmg_level_parallel",
    "tune_v_level_parallel",
]

#: ((level, acc_index), choice) pairs of an in-progress plan table.
TableItems = tuple[tuple[tuple[int, int], Choice], ...]


@dataclass(frozen=True)
class CandidateTask:
    """One V-cycle candidate evaluation, as pure data."""

    spec: TuneSpec
    level: int
    table: TableItems
    acc_index: int
    kind: str
    sub_accuracy: int | None


@dataclass(frozen=True)
class EstimateTask:
    """One full-MG ESTIMATE_j variant family (all slots), as pure data."""

    spec: TuneSpec
    level: int
    table: TableItems
    #: canonical JSON of the V plan the full-MG solve phase runs
    vplan_json: str
    j: int


# -- worker-side cache -----------------------------------------------------
#
# Keyed by (spec, V plan JSON or None); distinct levels and tables arrive
# per task.  Living at module scope, the cache persists for the worker
# process lifetime — and is bounded, so a long-lived pool serving many
# distinct tunes evicts the oldest instead of growing forever.

_CACHE_LIMIT = 8
_TUNERS: dict[tuple[TuneSpec, str | None], Any] = {}


def _tuner_for(spec: TuneSpec, vplan_json: str | None = None) -> Any:
    key = (spec, vplan_json)
    tuner = _TUNERS.get(key)
    if tuner is None:
        vplan = None
        if vplan_json is not None:
            vplan = plan_from_dict(json.loads(vplan_json))
            if not isinstance(vplan, TunedVPlan):
                raise TypeError("EstimateTask.vplan_json must be a multigrid-v plan")
        tuner = spec.build(vplan=vplan)
        while len(_TUNERS) >= _CACHE_LIMIT:
            _TUNERS.pop(next(iter(_TUNERS)))
        _TUNERS[key] = tuner
    return tuner


# -- worker functions ------------------------------------------------------


def evaluate_candidate(task: CandidateTask) -> CandidateOutcome:
    """Evaluate one V-cycle candidate (module-level: pool-picklable)."""
    tuner: VCycleTuner = _tuner_for(task.spec)
    plan = tuner._plan_below(dict(task.table), task.level)
    outcome = tuner._evaluate_candidate(
        plan, task.level, task.acc_index, task.kind, task.sub_accuracy, math.inf
    )
    if outcome is None:  # pragma: no cover - parent pre-filters candidates
        raise RuntimeError(f"candidate {task.kind!r} filtered inside worker")
    return outcome


def evaluate_estimate(task: EstimateTask) -> list[list[CandidateOutcome | None]]:
    """Evaluate every solver variant of ESTIMATE_j for every accuracy slot.

    Returns ``outcomes[acc_index][variant_index]`` in the serial variant
    enumeration order (SOR first, then RECURSE_l highest l first).
    """
    tuner: FullMGTuner = _tuner_for(task.spec, task.vplan_json)
    plan = tuner._plan_below(dict(task.table), task.level)
    starts = tuner._estimate_states(plan, task.level, task.j)
    return [
        [
            tuner._evaluate_variant(plan, task.level, i, task.j, kind, sub, starts, math.inf)
            for kind, sub in tuner._variant_order()
        ]
        for i in range(len(tuner.vplan.accuracies))
    ]


# -- parent-side level drivers ---------------------------------------------


def tune_v_level_parallel(
    tuner: VCycleTuner,
    level: int,
    table: dict[tuple[int, int], Choice],
    audit: list[CandidateReport],
) -> None:
    """Tune one V-cycle level by fanning its candidates across workers."""
    spec = TuneSpec.of(tuner)
    m = len(tuner.accuracies)
    frozen_table: TableItems = tuple(sorted(table.items()))
    tasks: list[CandidateTask] = []
    for i in range(m):
        for kind, j in tuner._candidate_order():
            if tuner._allowed(level, i, probe_choice(kind, j)):
                tasks.append(CandidateTask(spec, level, frozen_table, i, kind, j))
    outcomes = tuner.trial_executor.map(evaluate_candidate, tasks)
    per_slot: dict[int, list[CandidateOutcome]] = {i: [] for i in range(m)}
    for task, outcome in zip(tasks, outcomes):
        per_slot[task.acc_index].append(outcome)
    kept = audit if tuner.keep_audit else None
    for i in range(m):
        table[(level, i)] = select_fastest(level, i, per_slot[i], kept)


def tune_fmg_level_parallel(
    tuner: FullMGTuner,
    level: int,
    table: dict[tuple[int, int], Choice],
    audit: list[CandidateReport],
) -> None:
    """Tune one full-MG level with one worker task per estimate accuracy."""
    spec = TuneSpec.of(tuner)
    m = len(tuner.vplan.accuracies)
    frozen_table: TableItems = tuple(sorted(table.items()))
    vplan_json = json.dumps(plan_to_dict(tuner.vplan), sort_keys=True, separators=(",", ":"))
    tasks = [EstimateTask(spec, level, frozen_table, vplan_json, j) for j in range(m)]
    per_estimate = tuner.trial_executor.map(evaluate_estimate, tasks)
    plan = tuner._plan_below(table, level)
    kept = audit if tuner.keep_audit else None
    for i in range(m):
        # Direct is always feasible, so every slot has a winner.
        collected: list[CandidateOutcome] = [tuner._evaluate_direct(plan, level)]
        for j in range(m):
            collected.extend(o for o in per_estimate[j][i] if o is not None)
        table[(level, i)] = select_fastest(level, i, collected, kept)
