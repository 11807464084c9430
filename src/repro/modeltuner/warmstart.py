"""Warm-starting the model tuner from the shared trial store.

The pieces in :mod:`costmodel` and :mod:`bo` are machine-local; this
module connects them to the store so the whole fleet benefits:

* :func:`fit_model_from_store` assembles a :class:`CostModel` from the
  evidence a store has already accumulated — trial rows for the pricing
  context (operator / ndim / backend) plus, optionally, measured
  :class:`~repro.obs.profile.SolveProfiler` cells from live solves;
* :func:`model_for_profile` adds persistence: serve the current
  schema-v6 ``model_artifacts`` row when one exists, otherwise fit and
  store it, so one worker's fit becomes every worker's warm start;
* :func:`model_plan_for_key` is what ``PlanRegistry.get_or_tune(...,
  tuner="model")`` runs on a cold key: fetch-or-fit the model, then
  :func:`repro.tuner.spec.tune` the key's spec with the budgeted
  :class:`~repro.modeltuner.bo.BOSearch` instead of the exhaustive DP
  (for full-multigrid keys it finishes with the standard full-MG pass on
  top of the model-selected V plans).  The machine profile prices every
  evaluated candidate; the fitted model steers which candidates train.

Cold-machine behaviour is graceful by construction: with an empty store
and no profiler, the fitted model has no laws and calibration 1.0, so
it steers exactly like the analytic profile — the search still runs,
just without learned corrections.
"""

from __future__ import annotations

from typing import Any

from repro.machines.profile import MachineProfile
from repro.modeltuner.costmodel import CostModel

__all__ = [
    "fit_model_from_store",
    "model_for_profile",
    "model_plan_for_key",
]


def fit_model_from_store(
    db: Any,
    base_profile: MachineProfile,
    operator: str = "poisson",
    ndim: int = 2,
    backend: str = "numpy",
    profiler: Any | None = None,
) -> CostModel:
    """Fit a :class:`CostModel` from a store's accumulated evidence.

    ``db`` is a :class:`~repro.store.trialdb.TrialDB`; its trial rows
    for the (operator, ndim, backend) pricing context become plan-level
    pseudo-observations.  ``profiler`` (a ``SolveProfiler``) contributes
    measured per-op rows when given — the higher-quality signal.
    """
    rows = profiler.to_training_rows(ndim) if profiler is not None else []
    trials = db.trials(operator=operator, ndim=ndim, backend=backend)
    return CostModel.fit(
        rows,
        base_profile,
        trials=trials,
        provenance={
            "source": "store",
            "operator": operator,
            "ndim": ndim,
            "backend": backend,
        },
    )


def model_for_profile(
    registry: Any,
    profile: MachineProfile,
    operator: str = "poisson",
    ndim: int = 2,
    backend: str = "numpy",
    profiler: Any | None = None,
    refit: bool = False,
) -> CostModel:
    """The current fitted model for (profile, pricing context).

    Serves the persisted ``model_artifacts`` row when present (unless
    ``refit``), otherwise fits from the registry's store and persists
    the artifact so other workers skip the fit.
    """
    from repro.store.models import ModelStore

    store = ModelStore(registry.db)
    if not refit:
        cached = store.get_cost_model(profile.fingerprint(), operator, ndim, backend)
        if cached is not None:
            return cached
    model = fit_model_from_store(
        registry.db, profile, operator, ndim, backend, profiler=profiler
    )
    store.put_model(model, operator, ndim, backend)
    return model


def model_plan_for_key(
    registry: Any,
    profile: MachineProfile,
    key: Any,
    jobs: int | None = None,
    model: CostModel | None = None,
    seed: int = 0,
) -> Any:
    """Tune ``key`` with the model-guided BO search (the ``tuner="model"``
    cold path of :meth:`PlanRegistry.get_or_tune`).

    ``seed`` is the *search* seed (candidate-selection randomness),
    independent of ``key.seed`` (the training-data seed that is part of
    plan identity).  Returns a plan whose metadata carries
    ``tuner="model"`` plus the trial budget actually spent.
    """
    from repro.tuner.spec import TuneSpec, tune

    if model is None:
        model = model_for_profile(
            registry, profile, key.operator, key.ndim, key.backend
        )
    return tune(
        TuneSpec(key, pricing=profile), jobs, tuner="model", model=model,
        search_seed=seed,
    )
