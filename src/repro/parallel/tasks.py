"""Picklable trial tasks for the model tuner, and their worker function.

:class:`CandidateTask` is one V-cycle candidate of a
:class:`~repro.modeltuner.bo.BOSearch` level: a probe
:class:`~repro.tuner.choices.Choice` from the DP's candidate list
(``direct``, ``recurse(j, x1)`` or ``sor(x1)``), evaluated by the DP slot
loop's own ``_evaluate_candidate`` without a pruning budget (the search
observes every trained iteration count).  It carries the
:class:`~repro.tuner.spec.TuneSpec` of its tune — pure data whose
deterministic training seed makes a re-run in another process reproduce
the exact training instances — and the plan table tuned through the
level below.

A worker rebuilds the tuner with :meth:`TuneSpec.build` — the function
serial tunes use — on the same plan with the same per-level kernel
backends, so trained iteration counts and priced seconds are
bit-identical to a serial search.  Worker processes cache the rebuilt
tuners (and with them training instances, reference solutions and the
current level's training runs, which every task of that level reads) by
spec, so reconstruction is paid once per worker, not once per task;
direct-solver factorizations live on the process's shared per-size
operators.

The DP tuners do not fan out: every accuracy slot of a level reads its
iteration counts off the same per-step training runs, so a level's
slots are not independent work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.tuner.choices import Choice
from repro.tuner.dp import CandidateOutcome, VCycleTuner
from repro.tuner.spec import TuneSpec

__all__ = ["CandidateTask", "evaluate_candidate", "release_runs"]


@dataclass(frozen=True)
class CandidateTask:
    """One V-cycle candidate evaluation, as pure data."""

    spec: TuneSpec
    level: int
    #: ((level, acc_index), choice) pairs of the plan tuned so far
    table: tuple[tuple[tuple[int, int], Choice], ...]
    acc_index: int
    #: the candidate, applied once (``iterations=1``)
    probe: Choice


# -- worker-side cache -----------------------------------------------------
#
# Keyed by spec; distinct levels and tables arrive per task.  Living at
# module scope, the cache persists for the worker process lifetime — and
# is bounded, so a long-lived pool serving many distinct tunes evicts the
# oldest instead of growing forever.

_CACHE_LIMIT = 8
_TUNERS: dict[TuneSpec, VCycleTuner] = {}


def _tuner_for(spec: TuneSpec) -> VCycleTuner:
    tuner = _TUNERS.get(spec)
    if tuner is None:
        tuner = spec.build()
        assert isinstance(tuner, VCycleTuner)
        while len(_TUNERS) >= _CACHE_LIMIT:
            _TUNERS.pop(next(iter(_TUNERS)))
        _TUNERS[spec] = tuner
    return tuner


def evaluate_candidate(task: CandidateTask) -> CandidateOutcome | None:
    """Evaluate one V-cycle candidate without pruning (module-level:
    pool-picklable); with no budget to exhaust it always has an outcome."""
    tuner = _tuner_for(task.spec)
    plan = tuner._plan_below(dict(task.table), task.level)
    return tuner._evaluate_candidate(plan, task.level, task.acc_index, task.probe, math.inf)


def release_runs() -> None:
    """Drop the training runs this process's cached tuners keep for the
    level they trained last.  A search calls it when it ends; pool
    workers keep at most one level's runs per cached tuner."""
    for tuner in _TUNERS.values():
        tuner._drop_runs()
