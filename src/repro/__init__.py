"""repro — reproduction of "Autotuning Multigrid with PetaBricks" (SC'09).

The package builds every system the paper relies on, in Python:

* numerical substrates: grids, band-Cholesky direct solver, red-black SOR
  (:mod:`repro.grids`, :mod:`repro.linalg`, :mod:`repro.relax`);
* the paper's reference V, full-MG and SOR baselines, expressed as fixed
  plans and run by the same plan executor as every tuned plan
  (:mod:`repro.multigrid`);
* the accuracy metric and training machinery (:mod:`repro.accuracy`,
  :mod:`repro.workloads`);
* pluggable problem operators — constant/variable-coefficient and
  anisotropic stencils behind one protocol (:mod:`repro.operators`);
* the paper's contribution — the accuracy-aware DP autotuner
  (:mod:`repro.tuner`), with cycle-shape rendering (:mod:`repro.cycles`);
* machine cost models and a work-stealing runtime (:mod:`repro.machines`,
  :mod:`repro.runtime`);
* a batched, cache-warmed solve server with stale-while-tune background
  tuning and telemetry (:mod:`repro.serve`);
* a mini-PetaBricks choice framework (:mod:`repro.petabricks`);
* the experiment harness regenerating every table/figure
  (:mod:`repro.bench`).

Quickstart::

    from repro import core
    plan = core.autotune(max_level=5)
    x, seconds = core.solve(plan, core.poisson_problem("unbiased", n=33), 1e5)
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
