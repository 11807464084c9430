"""Picklable trial tasks for the tuners, and their worker functions.

Pool work comes in two shapes, and both carry the
:class:`~repro.tuner.spec.TuneSpec` of the tune they belong to — pure
data whose deterministic training seed makes a re-run in another
process reproduce the exact training instances:

* :class:`SlotTask` — one whole (level, accuracy) slot of a DP tune,
  V-cycle (:class:`~repro.tuner.dp.VCycleTuner`) or full MG
  (:class:`~repro.tuner.full_mg.FullMGTuner`), on the plan tuned
  through the level below (rebuilt from the task's table).  The worker
  runs the serial tuner's own ``_evaluate_slot``, pruning included, so
  outcomes, selection and audit are the serial ones by construction.
  The parent applies its ``candidate_filter`` (a callable, which the
  spec does not carry) and ships the slot's kept candidate order;
* :class:`CandidateTask` — one V-cycle candidate, evaluated without a
  pruning budget, for :class:`~repro.modeltuner.bo.BOSearch`, which
  observes every trained iteration count.

A worker rebuilds the tuner with :meth:`TuneSpec.build` — the function
serial tunes use — on the same plan with the same per-level kernel
backends, so trained iteration counts and priced seconds are
bit-identical to a serial tune.  Worker processes cache the rebuilt
tuners (and with them training instances and reference solutions) by
spec, so reconstruction is paid once per worker, not once per task;
direct-solver factorizations live on the process's shared per-size
operators.
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
    select_fastest,
)
from repro.tuner.full_mg import FullMGTuner
from repro.tuner.plan import TunedVPlan
from repro.tuner.spec import TuneSpec

__all__ = [
    "CandidateTask",
    "SlotTask",
    "evaluate_candidate",
    "evaluate_slot",
    "tune_level_parallel",
]

#: ((level, acc_index), choice) pairs of an in-progress plan table.
TableItems = tuple[tuple[tuple[int, int], Choice], ...]


@dataclass(frozen=True)
class SlotTask:
    """One (level, accuracy) slot of a DP tune, as pure data."""

    spec: TuneSpec
    level: int
    table: TableItems
    acc_index: int
    #: the V-cycle slot's filtered candidate order; empty for full MG
    candidates: tuple[tuple[str, int | None], ...]
    #: canonical JSON of the V plan a full-MG tune runs; None for V-cycle
    vplan_json: str | None = None


@dataclass(frozen=True)
class CandidateTask:
    """One V-cycle candidate evaluation, as pure data."""

    spec: TuneSpec
    level: int
    table: TableItems
    acc_index: int
    kind: str
    sub_accuracy: int | None


# -- worker-side caches ----------------------------------------------------
#
# Keyed by (spec, V plan JSON or None); distinct levels and tables arrive
# per task.  Living at module scope, the cache persists for the worker
# process lifetime — and is bounded, so a long-lived pool serving many
# distinct tunes evicts the oldest instead of growing forever.

_CACHE_LIMIT = 8
_TUNERS: dict[tuple[TuneSpec, str | None], Any] = {}
#: the full-MG estimate states of the last (spec, vplan, level, table)
_ESTIMATES: list[tuple[Any, list]] = []


def _tuner_for(spec: TuneSpec, vplan_json: str | None = None) -> Any:
    key = (spec, vplan_json)
    tuner = _TUNERS.get(key)
    if tuner is None:
        vplan = None
        if vplan_json is not None:
            vplan = plan_from_dict(json.loads(vplan_json))
            if not isinstance(vplan, TunedVPlan):
                raise TypeError("SlotTask.vplan_json must be a multigrid-v plan")
        tuner = spec.build(vplan=vplan)
        while len(_TUNERS) >= _CACHE_LIMIT:
            _TUNERS.pop(next(iter(_TUNERS)))
        _TUNERS[key] = tuner
    return tuner


# -- worker functions ------------------------------------------------------


def evaluate_slot(task: SlotTask) -> list[CandidateOutcome]:
    """Evaluate one slot exactly as the serial tuner does (module-level:
    pool-picklable); returns its outcomes in enumeration order."""
    tuner = _tuner_for(task.spec, task.vplan_json)
    plan = tuner._plan_below(dict(task.table), task.level)
    if task.vplan_json is None:
        return tuner._evaluate_slot(plan, task.level, task.acc_index, task.candidates)
    # Every slot of a level shares the estimate states: compute them
    # once per (level, table) in each worker.
    key = (task.spec, task.vplan_json, task.level, task.table)
    if not _ESTIMATES or _ESTIMATES[0][0] != key:
        _ESTIMATES[:] = [(key, tuner._estimate_states(plan, task.level))]
    return tuner._evaluate_slot(plan, task.level, task.acc_index, _ESTIMATES[0][1])


def evaluate_candidate(task: CandidateTask) -> CandidateOutcome:
    """Evaluate one V-cycle candidate without pruning (module-level:
    pool-picklable)."""
    tuner: VCycleTuner = _tuner_for(task.spec)
    plan = tuner._plan_below(dict(task.table), task.level)
    return tuner._evaluate_candidate(
        plan, task.level, task.acc_index, task.kind, task.sub_accuracy, math.inf
    )


# -- parent-side level driver ----------------------------------------------


def tune_level_parallel(
    tuner: VCycleTuner | FullMGTuner,
    level: int,
    table: dict[tuple[int, int], Choice],
    audit: list[CandidateReport],
) -> None:
    """Tune one level of either DP tuner with one worker task per
    accuracy slot, selecting in the parent as the serial tuner does."""
    spec = TuneSpec.of(tuner)
    frozen_table: TableItems = tuple(sorted(table.items()))
    if isinstance(tuner, FullMGTuner):
        vplan_json = json.dumps(
            plan_to_dict(tuner.vplan), sort_keys=True, separators=(",", ":")
        )
        tasks = [
            SlotTask(spec, level, frozen_table, i, (), vplan_json)
            for i in range(len(tuner.vplan.accuracies))
        ]
    else:
        tasks = [
            SlotTask(spec, level, frozen_table, i, tuner._slot_candidates(level, i))
            for i in range(len(tuner.accuracies))
        ]
    kept = audit if tuner.keep_audit else None
    for i, outcomes in enumerate(tuner.trial_executor.map(evaluate_slot, tasks)):
        table[(level, i)] = select_fastest(level, i, outcomes, kept)
