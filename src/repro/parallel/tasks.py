"""Picklable trial tasks for the tuners, and their worker functions.

Pool work comes in two shapes, and both carry the
:class:`~repro.tuner.spec.TuneSpec` of the tune they belong to — pure
data whose deterministic training seed makes a re-run in another
process reproduce the exact training instances:

* :class:`CandidateTask` — one V-cycle candidate for one (level,
  accuracy) slot, evaluated against the partially built plan table.
  The DP (:class:`~repro.tuner.dp.VCycleTuner`) and the model-guided
  :class:`~repro.modeltuner.bo.BOSearch` both use it;
* :class:`EstimateTask` — every solver variant of one full-MG
  ESTIMATE_j, for :class:`~repro.tuner.full_mg.FullMGTuner`.

A worker rebuilds the tuner with :meth:`TuneSpec.build` — the function
serial tunes use — and runs the *same* single-candidate evaluation code
the serial tuner runs, with the same per-level kernel backends, so
trained iteration counts and priced seconds are bit-identical to a
serial tune.  The only difference is pruning: workers evaluate with an
infinite budget, and any candidate the serial tuner would have pruned
prices strictly worse than the serial winner, so per-slot selection —
done in the parent, folding outcomes in serial enumeration order with a
strict ``<`` — picks exactly the same plan.

Worker processes cache the rebuilt tuners (and with them training
instances, reference solutions, and direct-solver factorizations) by
spec, so reconstruction is paid once per worker, not once per task.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

from repro.tuner.choices import Choice, DirectChoice, RecurseChoice, SORChoice
from repro.tuner.config import plan_from_dict, plan_to_dict
from repro.tuner.dp import (
    CandidateOutcome,
    CandidateReport,
    VCycleTuner,
    _TableView,
    select_fastest,
)
from repro.tuner.full_mg import FullMGTuner, _FullTableView
from repro.tuner.plan import TunedVPlan
from repro.tuner.spec import TuneSpec
from repro.util.validation import size_of_level

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


def _probe_choice(kind: str, j: int | None) -> Choice:
    """The probe the candidate_filter sees (mirrors the serial probes)."""
    if kind == "direct":
        return DirectChoice()
    if kind == "recurse":
        assert j is not None
        return RecurseChoice(sub_accuracy=j, iterations=1)
    if kind == "sor":
        return SORChoice(iterations=1)
    raise ValueError(f"unknown candidate kind {kind!r}")


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
    table = dict(task.table)
    level = task.level
    view = _TableView(table, level, tuner._backends_through(level))
    sub_meters = [tuner._meter_below(table, level, j) for j in range(len(tuner.accuracies))]
    outcome = tuner._evaluate_candidate(
        level,
        task.acc_index,
        tuner.accuracies[task.acc_index],
        size_of_level(level),
        tuner.training.at_level(level),
        view,
        sub_meters,
        task.kind,
        task.sub_accuracy,
        math.inf,
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
    table = dict(task.table)
    n = size_of_level(task.level)
    bundle = tuner.training.at_level(task.level)
    view = _FullTableView(table, tuner.vplan, task.level)
    starts = tuner._estimate_states(view, bundle, task.level, task.j)
    est_meter = tuner._estimate_meter(table, task.level, task.j)
    return [
        [
            tuner._evaluate_variant(
                task.level,
                i,
                target,
                n,
                bundle,
                task.j,
                kind,
                sub,
                starts,
                est_meter,
                math.inf,
            )
            for kind, sub in tuner._variant_order()
        ]
        for i, target in enumerate(tuner.vplan.accuracies)
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
            if tuner._allowed(level, i, _probe_choice(kind, j)):
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
    n = size_of_level(level)
    bundle = tuner.training.at_level(level)
    kept = audit if tuner.keep_audit else None
    for i in range(m):
        # Direct is always feasible, so every slot has a winner.
        collected: list[CandidateOutcome] = [tuner._evaluate_direct(n, bundle)]
        for j in range(m):
            collected.extend(o for o in per_estimate[j][i] if o is not None)
        table[(level, i)] = select_fastest(level, i, collected, kept)
