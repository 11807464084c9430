"""Process-pool trial execution for the autotuner and tuning store.

The paper's autotuner is embarrassingly parallel at the trial level:
candidate timings are independent of each other, and campaign cells are
independent tuning problems.  This subsystem exposes both axes:

* :class:`~repro.parallel.executor.TrialExecutor` — the interface the
  tuners (:class:`~repro.tuner.dp.VCycleTuner`,
  :class:`~repro.tuner.full_mg.FullMGTuner`,
  :class:`~repro.modeltuner.bo.BOSearch`) use to evaluate candidate
  batches.  :class:`~repro.parallel.executor.SerialExecutor` is the
  bit-identical in-process default; :class:`~repro.parallel.executor.
  ProcessPoolTrialExecutor` fans batches across worker processes.
* :mod:`~repro.parallel.tasks` — the pool work itself.  Every task
  carries the :class:`~repro.tuner.spec.TuneSpec` of its tune: the DP
  tuners ship one :class:`~repro.parallel.tasks.SlotTask` per (level,
  accuracy) slot, which the worker evaluates with the serial tuner's
  own pruning, and :class:`~repro.modeltuner.bo.BOSearch` one
  :class:`~repro.parallel.tasks.CandidateTask` per trained candidate.
  Workers rebuild the tuner from the spec exactly as a serial tune
  builds it, and the plan tuned through the level below from the
  task's table, so the parallel tuner selects exactly the plan the
  serial tuner would.
* :func:`~repro.parallel.campaigns.run_cells_parallel` — campaign-cell
  fan-out.  Each worker opens its own WAL-mode
  :class:`~repro.store.trialdb.TrialDB` connection on the shared store
  and commits its cell atomically, so an interrupted parallel campaign
  resumes exactly like a serial one.

Entry points for callers: ``Campaign.run(jobs=N)``,
``core.autotune_cached(jobs=N)``, ``core.solve_service(jobs=N)``, and
``repro-mg store tune --jobs N``.
"""

from repro.parallel.campaigns import run_cells_parallel
from repro.parallel.tasks import (
    CandidateTask,
    SlotTask,
    evaluate_candidate,
    evaluate_slot,
)
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
    "SlotTask",
    "TrialExecutor",
    "evaluate_candidate",
    "evaluate_slot",
    "resolve_executor",
    "run_cells_parallel",
]
