"""The paper's reference algorithms, run as fixed plans.

MULTIGRID-V-SIMPLE (section 2.1), the standard full multigrid cycle
(Figure 3) and iterated SOR are single points in the choice space the
autotuner searches, so they are expressed as fixed plans and executed by
the same :class:`~repro.tuner.executor.PlanExecutor` as every tuned plan:

* :func:`v_plan` — direct solve at level 1 (3x3), one RECURSE_0 (one
  pre-relaxation, the coarse correction by recursion, one
  post-relaxation) at every level above it;
* :func:`full_mg_plan` — ESTIMATE_0 then one RECURSE_0 above level 1,
  with :func:`v_plan` as the solve phase;
* :func:`sor_plan` — one SOR(omega_opt) sweep;
* :class:`ReferenceVSolver` / :class:`ReferenceFullMGSolver` /
  :class:`SORSolver` — the comparison points of section 4.2.2 and
  Figure 6: iterate those plans until an accuracy target is reached
  (the full-MG solver starts with one full-MG cycle, then V cycles).
"""

from repro.multigrid.solver import (
    IterationLimit,
    ReferenceFullMGSolver,
    ReferenceVSolver,
    SORSolver,
    full_mg_plan,
    sor_plan,
    v_plan,
)

__all__ = [
    "IterationLimit",
    "ReferenceFullMGSolver",
    "ReferenceVSolver",
    "SORSolver",
    "full_mg_plan",
    "sor_plan",
    "v_plan",
]
