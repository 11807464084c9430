"""One-call wrappers: autotune a plan, solve a problem, compare baselines.

Service-shaped callers should prefer :func:`autotune_cached` /
:func:`solve_service`: they route through the persistent plan registry
(:mod:`repro.store`), so the DP tuner runs at most once per
(machine fingerprint, tuning key) across processes and restarts.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING, Literal

import numpy as np

from repro.accuracy.judge import AccuracyJudge
from repro.accuracy.reference import reference_solution
from repro.machines.meter import OpMeter
from repro.machines.presets import get_preset
from repro.machines.profile import MachineProfile
from repro.multigrid.solver import ReferenceFullMGSolver, ReferenceVSolver, SORSolver
from repro.operators.spec import (
    OperatorSpec,
    default_operator_spec,
    parse_operator,
)
from repro.tuner.executor import PlanExecutor
from repro.tuner.plan import DEFAULT_ACCURACIES, TunedFullMGPlan, TunedVPlan
from repro.tuner.spec import TuneKey, TuneSpec, tune
from repro.workloads.distributions import make_problem
from repro.workloads.problem import PoissonProblem

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.frontdoor import FrontDoor
    from repro.serve.server import SolveServer
    from repro.store.registry import PlanRegistry, RegistryHit

__all__ = [
    "autotune",
    "autotune_cached",
    "autotune_full_mg",
    "close_default_registry",
    "default_registry",
    "open_server",
    "poisson_problem",
    "solve",
    "solve_reference",
    "solve_service",
]

#: Environment variable naming the default on-disk tuning store.  Unset,
#: the process default registry is in-memory (still amortizes tuning
#: across calls within the process).
STORE_ENV = "REPRO_MG_STORE"

_default_registries: dict[str, "PlanRegistry"] = {}


def _resolve_store_path(path: str) -> str:
    """Canonical cache key for a store path.

    Relative spellings of the same file (``store.sqlite`` vs
    ``./store.sqlite``) must share one registry — and therefore one
    SQLite connection — so the key is the absolute path.  ``:memory:``
    stays symbolic: it names a per-process private store, not a file.
    """
    return path if path == ":memory:" else os.path.abspath(path)


def default_registry() -> "PlanRegistry":
    """The process-wide plan registry.

    Backed by the SQLite file named in ``$REPRO_MG_STORE`` when set,
    otherwise an in-memory store shared by all callers in this process.
    The environment variable is re-read on every call but the registry
    is cached per resolved path, so repeated calls — e.g. one per
    served request — share a single SQLite connection instead of
    opening a fresh one each time.  Setting the variable mid-process
    takes effect on the next call.
    """
    path = _resolve_store_path(os.environ.get(STORE_ENV, ":memory:"))
    registry = _default_registries.get(path)
    if registry is None:
        from repro.store.registry import PlanRegistry

        registry = _default_registries[path] = PlanRegistry(path)
    return registry


def close_default_registry(path: str | None = None) -> int:
    """Close cached default registries (all of them, or one path).

    Teardown hook for services and tests: closes the underlying SQLite
    connections and drops them from the per-path cache, so the next
    :func:`default_registry` call reopens cleanly.  Returns how many
    registries were closed.
    """
    if path is None:
        doomed = list(_default_registries)
    else:
        doomed = [p for p in (_resolve_store_path(path),) if p in _default_registries]
    for key in doomed:
        _default_registries.pop(key).db.close()
    return len(doomed)


def _resolve_registry(store: object) -> "PlanRegistry":
    from repro.store.registry import PlanRegistry
    from repro.store.trialdb import TrialDB

    if store is None:
        return default_registry()
    if isinstance(store, PlanRegistry):
        return store
    if isinstance(store, (TrialDB, str, Path)):
        return PlanRegistry(store)
    raise TypeError(f"store must be a PlanRegistry, TrialDB, or path; got {store!r}")


def _resolve_operator_ndim(
    operator: OperatorSpec | str | None, ndim: int | None
) -> OperatorSpec:
    """Resolve the (operator, ndim) pair every one-call wrapper accepts.

    ``operator=None`` picks the constant-coefficient Poisson default for
    ``ndim`` (2 unless specified); an explicit operator must agree with
    an explicit ``ndim``.
    """
    if operator is None:
        return default_operator_spec(2 if ndim is None else ndim)
    spec = parse_operator(operator)
    if ndim is not None and spec.ndim != ndim:
        raise ValueError(
            f"ndim={ndim} does not match operator {spec.canonical()!r} "
            f"(a {spec.ndim}-D family)"
        )
    return spec


def _profile(machine: str | MachineProfile) -> MachineProfile:
    return get_preset(machine) if isinstance(machine, str) else machine


def _tune_key(
    kind: str,
    max_level: int,
    distribution: str,
    accuracies: tuple[float, ...],
    instances: int,
    seed: int | None,
    operator: OperatorSpec | str | None,
    ndim: int | None,
    backend: str,
) -> TuneKey:
    """The tuning key every one-call tuning wrapper describes."""
    return TuneKey(
        kind=kind,
        distribution=distribution,
        max_level=max_level,
        accuracies=tuple(accuracies),
        seed=seed,
        instances=instances,
        operator=_resolve_operator_ndim(operator, ndim).canonical(),
        backend=backend,
    )


def poisson_problem(
    distribution: str = "unbiased",
    n: int = 33,
    seed: int | None = 0,
    operator: OperatorSpec | str | None = None,
    ndim: int | None = None,
) -> PoissonProblem:
    """A deterministic problem instance from a named distribution.

    ``operator`` picks the discrete operator family (default: the
    constant-coefficient Poisson stencil; also ``"varcoeff"``,
    ``"anisotropic"``, ``"poisson3d"``, or any canonical spec string).
    ``ndim=3`` with no operator selects the 3-D Poisson default.
    """
    return make_problem(
        distribution, n, seed, operator=_resolve_operator_ndim(operator, ndim)
    )


def autotune(
    max_level: int = 6,
    machine: str | MachineProfile = "intel",
    distribution: str = "unbiased",
    accuracies: tuple[float, ...] = DEFAULT_ACCURACIES,
    instances: int = 3,
    seed: int | None = 0,
    jobs: int | None = None,
    operator: OperatorSpec | str | None = None,
    ndim: int | None = None,
    backend: str = "numpy",
    tuner: Literal["dp", "model"] = "dp",
) -> TunedVPlan:
    """Tune the MULTIGRID-V_i family for a machine, distribution and operator.

    ``jobs`` > 1 evaluates candidate trials on a process pool
    (:mod:`repro.parallel`); trial tasks are deterministically seeded,
    so the tuned plan is identical to a serial (``jobs=1``) tune.
    ``ndim=3`` selects the 3-D workload family (``operator=None`` then
    means the 3-D Poisson default).  ``backend`` makes accelerated
    kernel backends available to the tuner as a per-level choice
    (``"auto"`` picks the best backend this host can run); the plan
    records which levels use it.  ``tuner="model"`` runs the budgeted
    model-guided BO search (:mod:`repro.modeltuner`) instead of the
    exhaustive DP — same plan surface, a fraction of the trial budget.
    """
    key = _tune_key(
        "multigrid-v", max_level, distribution, accuracies, instances, seed,
        operator, ndim, backend,
    )
    return tune(TuneSpec(key, pricing=_profile(machine)), jobs, tuner=tuner)


def autotune_full_mg(
    max_level: int = 6,
    machine: str | MachineProfile = "intel",
    distribution: str = "unbiased",
    accuracies: tuple[float, ...] = DEFAULT_ACCURACIES,
    instances: int = 3,
    seed: int | None = 0,
    vplan: TunedVPlan | None = None,
    jobs: int | None = None,
    operator: OperatorSpec | str | None = None,
    ndim: int | None = None,
    backend: str = "numpy",
) -> TunedFullMGPlan:
    """Tune FULL-MULTIGRID_i (tuning the V family first if not supplied).

    A caller-supplied ``vplan`` must have been tuned for the same
    ``operator`` (the tuner validates and raises on mismatch); its
    per-level kernel backends carry over to the full-MG plan, so
    ``backend`` only matters when the V plan is tuned here.
    """
    key = _tune_key(
        "full-multigrid", max_level, distribution, accuracies, instances, seed,
        operator, ndim, backend,
    )
    return tune(TuneSpec(key, pricing=_profile(machine)), jobs, vplan=vplan)


def solve(
    plan: TunedVPlan | TunedFullMGPlan,
    problem: PoissonProblem,
    target_accuracy: float,
) -> tuple[np.ndarray, OpMeter]:
    """Solve ``problem`` to ``target_accuracy`` with a tuned plan.

    The plan executes against the problem's operator, and must have been
    tuned for it: trained iteration counts carry no accuracy promise on
    a different operator, so a mismatch raises instead of silently
    returning an inaccurate grid.  (Plans from before the operator layer
    carry no operator metadata and count as Poisson-tuned.)  Returns the
    solution grid and the op meter of the run (price it with any
    :class:`MachineProfile` for a simulated time).
    """
    level = problem.level
    if level > plan.max_level:
        raise ValueError(
            f"plan tuned to level {plan.max_level}; problem is level {level}"
        )
    plan_operator = plan.metadata.get("operator", "poisson")
    if plan_operator != problem.operator.canonical():
        raise ValueError(
            f"plan was tuned for operator {plan_operator!r}; problem uses "
            f"{problem.operator.canonical()!r}"
        )
    acc_index = plan.accuracy_index(target_accuracy)
    x = problem.initial_guess()
    meter = OpMeter()
    executor = PlanExecutor(operator=problem.operator)
    if isinstance(plan, TunedFullMGPlan):
        executor.run_full_mg(plan, x, problem.b, acc_index, meter)
    else:
        executor.run_v(plan, x, problem.b, acc_index, meter)
    return x, meter


def solve_reference(
    problem: PoissonProblem,
    target_accuracy: float,
    method: Literal["v", "full-mg", "sor"] = "v",
) -> tuple[np.ndarray, OpMeter, int]:
    """Solve with one of the paper's reference algorithms.

    Returns (solution, op meter, iteration count).
    """
    x_opt = reference_solution(problem)
    x = problem.initial_guess()
    judge = AccuracyJudge(x, x_opt)
    meter = OpMeter()
    solver = {
        "v": ReferenceVSolver(operator=problem.operator),
        "full-mg": ReferenceFullMGSolver(operator=problem.operator),
        "sor": SORSolver(operator=problem.operator),
    }[method]
    iters = solver.solve(x, problem.b, judge.accuracy_of, target_accuracy, meter)
    return x, meter, iters


def autotune_cached(
    max_level: int = 6,
    machine: str | MachineProfile = "intel",
    distribution: str = "unbiased",
    accuracies: tuple[float, ...] = DEFAULT_ACCURACIES,
    instances: int = 3,
    seed: int | None = 0,
    kind: Literal["multigrid-v", "full-multigrid"] = "multigrid-v",
    store: object = None,
    allow_nearest: bool = True,
    jobs: int | None = None,
    operator: OperatorSpec | str | None = None,
    ndim: int | None = None,
    backend: str = "numpy",
    tuner: Literal["dp", "model"] = "dp",
) -> TunedVPlan | TunedFullMGPlan:
    """:func:`autotune` through the persistent plan registry.

    An exact registry hit returns the stored plan without running the
    tuner; otherwise the nearest known machine's plan serves (when
    ``allow_nearest``), and only a genuinely cold key pays for a tuning
    pass — across ``jobs`` worker processes when ``jobs`` > 1, with a
    plan identical to the serial tune.  ``tuner="model"`` makes that
    cold pass the budgeted model-guided search warm-started from the
    store's accumulated trials (:mod:`repro.modeltuner`) instead of the
    exhaustive DP.  ``operator`` is part of the tuning key, so each
    problem family gets its own registry entries.  ``store`` is a
    :class:`~repro.store.registry.PlanRegistry`,
    :class:`~repro.store.trialdb.TrialDB`, or database path; default is
    :func:`default_registry`.
    """
    key = _tune_key(
        kind, max_level, distribution, accuracies, instances, seed, operator, ndim, backend
    )
    return _resolve_registry(store).get_or_tune(
        _profile(machine), key, allow_nearest=allow_nearest, jobs=jobs, tuner=tuner
    ).plan


def solve_service(
    problem: PoissonProblem,
    target_accuracy: float,
    machine: str | MachineProfile = "intel",
    distribution: str | None = None,
    instances: int = 3,
    seed: int | None = 0,
    kind: Literal["multigrid-v", "full-multigrid"] = "multigrid-v",
    store: object = None,
    jobs: int | None = None,
    backend: str = "numpy",
) -> tuple[np.ndarray, OpMeter, "RegistryHit"]:
    """Solve like a long-running service: plans come from the registry.

    The tuning key is derived from the problem (its level, its operator,
    and its distribution label unless ``distribution`` overrides it); repeated
    calls for the same workload class are registry hits that skip the
    tuner entirely.  ``distribution="auto"`` classifies the problem's
    right-hand side (:func:`repro.tuner.dynamic.classify_by_bias`)
    instead of trusting the label — the escape hatch for problems built
    outside the named distributions.  A cold key tunes across ``jobs``
    worker processes when ``jobs`` > 1 (identical plan, lower latency).
    Returns (solution, meter, registry hit) so callers can log where
    their plan came from.
    """
    from repro.tuner.dynamic import resolve_distribution

    profile = _profile(machine)
    registry = _resolve_registry(store)
    dist = resolve_distribution(problem, distribution)
    key = TuneKey(
        kind=kind,
        distribution=dist,
        max_level=problem.level,
        seed=seed,
        instances=instances,
        operator=problem.operator.canonical(),
        backend=backend,
    )
    hit = registry.get_or_tune(profile, key, jobs=jobs)
    x, meter = solve(hit.plan, problem, target_accuracy)
    return x, meter, hit


def open_server(
    machine: str | MachineProfile = "intel",
    store: object = None,
    *,
    shards: int | None = None,
    **options: object,
) -> "SolveServer | FrontDoor":
    """Open a solve server (the facade) — in-process or sharded.

    Without ``shards`` this is a single-process
    :class:`~repro.serve.server.SolveServer`: worker threads start
    immediately and the object is a context manager (``with
    core.open_server() as server: ...`` drains and shuts down on exit).
    Keyword options pass through — ``workers``, ``queue_size``,
    ``batch_size``, ``tune_jobs``, the tuning configuration (``kind``,
    ``accuracies``, ``seed``, ``instances``),
    the SLO controls (``slo_p99_s``, ...), and the observability hooks
    (``tracer``/``profiler`` in-process, ``trace=True`` sharded — see
    :mod:`repro.obs`).

    With ``shards=N`` it is a :class:`~repro.serve.frontdoor.FrontDoor`
    over N shard-worker processes with the same ``submit``/``solve``/
    ``warm``/``stats`` surface; grid payloads then travel through
    shared memory instead of the in-process queue.  ``store`` must be a
    path (or None) in that case — worker processes open their own
    connections.
    """
    if shards is not None:
        from pathlib import Path

        from repro.serve.frontdoor import FrontDoor

        if isinstance(machine, MachineProfile):
            raise TypeError(
                "sharded serving takes a machine preset name (workers "
                "resolve it in their own processes), not a MachineProfile"
            )
        if store is not None and not isinstance(store, (str, Path)):
            raise TypeError(
                f"sharded serving takes a store *path* (workers open "
                f"their own connections), not {type(store).__name__}"
            )
        return FrontDoor(
            shards=shards,
            machine=machine,
            store_path=str(store) if store is not None else None,
            **options,  # type: ignore[arg-type]
        )
    from repro.serve.server import SolveServer

    return SolveServer(machine=machine, store=store, **options)  # type: ignore[arg-type]
