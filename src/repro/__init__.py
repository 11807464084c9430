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
  (:mod:`repro.tuner`), whose plans carry their own op multisets and
  event traces;
* machine cost models for the paper's three testbeds
  (:mod:`repro.machines`);
* a batched, cache-warmed solve server with stale-while-tune background
  tuning and telemetry (:mod:`repro.serve`);
* a mini-PetaBricks choice framework (:mod:`repro.petabricks`).

The paper's tables and figures, in priced and measured seconds, come from
one driver outside the package, ``benchmarks/paper_figures.py``.

Quickstart::

    from repro import core
    plan = core.autotune(max_level=5)
    x, seconds = core.solve(plan, core.poisson_problem("unbiased", n=33), 1e5)
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
