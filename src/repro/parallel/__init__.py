"""Process-pool trial execution for the autotuner and tuning store.

Two kinds of tuning work are independent of each other: the candidates
a model-guided search picks for a level, and campaign cells, which are
separate tuning problems.  This subsystem runs both in parallel:

* :class:`~repro.parallel.executor.TrialExecutor` — the interface
  :class:`~repro.modeltuner.bo.BOSearch` uses to evaluate its candidate
  batches.  :class:`~repro.parallel.executor.SerialExecutor` is the
  bit-identical in-process default; :class:`~repro.parallel.executor.
  ProcessPoolTrialExecutor` fans batches across worker processes.
* :mod:`~repro.parallel.tasks` — the pool work itself: one
  :class:`~repro.parallel.tasks.CandidateTask` per trained candidate,
  carrying the :class:`~repro.tuner.spec.TuneSpec` of its search.
  Workers rebuild the tuner from the spec exactly as a serial tune
  builds it, and the plan tuned through the level below from the
  task's table, so the parallel search selects exactly the plan the
  serial one would.  The DP tuners
  (:class:`~repro.tuner.dp.VCycleTuner`,
  :class:`~repro.tuner.full_mg.FullMGTuner`) always tune serially:
  every accuracy slot of a level reads its iteration counts off the
  same per-candidate training runs, so the slots are not independent.
* :func:`~repro.parallel.campaigns.run_cells_parallel` — campaign-cell
  fan-out.  Each worker opens its own WAL-mode
  :class:`~repro.store.trialdb.TrialDB` connection on the shared store
  and commits its cell atomically, so an interrupted parallel campaign
  resumes exactly like a serial one.

Entry points for callers: ``Campaign.run(jobs=N)`` and
``repro-mg store tune --jobs N`` (campaign cells), and
``core.autotune(jobs=N)``, ``core.autotune_cached(jobs=N)`` and
``PlanRegistry.get_or_tune(jobs=N)``, where ``jobs`` fans out only
model-tuner (``tuner="model"``) searches; DP keys tune serially.
"""

from repro.parallel.campaigns import run_cells_parallel
from repro.parallel.tasks import CandidateTask, evaluate_candidate
from repro.parallel.executor import (
    ProcessPoolTrialExecutor,
    SerialExecutor,
    TrialExecutor,
    resolve_executor,
)

__all__ = [
    "CandidateTask",
    "ProcessPoolTrialExecutor",
    "SerialExecutor",
    "TrialExecutor",
    "evaluate_candidate",
    "resolve_executor",
    "run_cells_parallel",
]
