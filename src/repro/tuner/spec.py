"""One description of a tune: what to tune, how to price it, how far to search.

:class:`TuneKey` names a tuning problem (machine excluded) — the
identity under which the plan registry stores plans.  :class:`TuneSpec`
grows it into everything a tuner needs: the pricing (a machine profile
or a fitted cost model) and the search caps.
A spec is frozen, hashable and picklable pure data, so the same value
builds the tuner of a serial tune, keys the tuner cache of a pool
worker, and ships inside every model-tuner pool task.

* :meth:`TuneSpec.build` is the one function that turns a spec into a
  DP tuner (the V-cycle tuner, or the full-MG tuner over a tuned V plan);
* :func:`tune` is the one entry every cold path calls — ``core.autotune*``,
  the registry, the model tuner's warm start and the solve server's
  background tunes.  It owns the model search's trial executor;
  :func:`tune_pair` is the (V, full-MG) pair of one full-MG tune.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.tuner.dp import VCycleTuner, check_caps
from repro.tuner.full_mg import FullMGTuner
from repro.tuner.plan import DEFAULT_ACCURACIES, TunedFullMGPlan, TunedVPlan
from repro.tuner.timing import CostModelTiming
from repro.tuner.training import TrainingData

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machines.profile import MachineProfile
    from repro.modeltuner.costmodel import CostModel

__all__ = ["PLAN_KINDS", "TuneKey", "TuneSpec", "tune", "tune_pair"]

PLAN_KINDS = ("multigrid-v", "full-multigrid")


@dataclass(frozen=True)
class TuneKey:
    """Keyfields identifying one tuning problem (machine excluded).

    ``operator`` is the canonical operator spec string (see
    :func:`repro.operators.parse_operator`); it defaults to the
    constant-coefficient Poisson operator every pre-operator-layer plan
    implicitly meant, and is normalized on construction so equivalent
    spellings produce the same storage key.  ``ndim`` is the grid
    dimensionality; ``None`` derives it from the operator's family, and
    an explicit value must match it (3-D plans can never shadow 2-D
    ones, or vice versa).  ``backend`` is the kernel backend the tune
    prices against; ``"auto"`` resolves to the best backend available on
    this host at construction (so the stored key always names a concrete
    backend), and the default ``'numpy'`` is what every pre-backend plan
    implicitly meant.
    """

    kind: str = "multigrid-v"
    distribution: str = "unbiased"
    max_level: int = 6
    accuracies: tuple[float, ...] = DEFAULT_ACCURACIES
    seed: int | None = 0
    instances: int = 3
    operator: str = "poisson"
    ndim: int | None = None
    backend: str = "numpy"

    def __post_init__(self) -> None:
        if self.kind not in PLAN_KINDS:
            raise ValueError(f"kind must be one of {PLAN_KINDS}, not {self.kind!r}")
        from repro.kernels import resolve_backend
        from repro.operators.spec import parse_operator

        spec = parse_operator(self.operator)
        object.__setattr__(self, "operator", spec.canonical())
        if self.ndim is None:
            object.__setattr__(self, "ndim", spec.ndim)
        elif self.ndim != spec.ndim:
            raise ValueError(
                f"ndim={self.ndim} does not match operator "
                f"{spec.canonical()!r} (a {spec.ndim}-D family)"
            )
        object.__setattr__(self, "accuracies", tuple(self.accuracies))
        object.__setattr__(self, "backend", resolve_backend(self.backend))

    def storage_key(self, fingerprint: str) -> str:
        from repro.store.trialdb import canonical_accuracies, canonical_seed

        return "|".join(
            [
                fingerprint,
                self.kind,
                self.distribution,
                str(self.max_level),
                canonical_accuracies(self.accuracies),
                canonical_seed(self.seed),
                str(self.instances),
                self.operator,
                str(self.ndim),
                self.backend,
            ]
        )


@dataclass(frozen=True)
class TuneSpec:
    """A :class:`TuneKey` plus its pricing and search caps.

    ``pricing`` prices every candidate evaluation: a machine profile, or
    a fitted cost model on the cold-machine model search.  A model that
    merely steers a search which has a profile stays out of the spec, so
    it can never change evaluated prices.
    """

    key: TuneKey
    #: compared but not hashed (profiles and models hold dicts); equal
    #: specs still hash equal, which is all the worker cache needs
    pricing: "MachineProfile | CostModel" = field(hash=False)
    aggregate: str = "max"
    max_sor_iters: int = 400
    max_recurse_iters: int = 64

    def __post_init__(self) -> None:
        check_caps(self.max_sor_iters, self.max_recurse_iters)

    @classmethod
    def from_training(
        cls,
        training: TrainingData,
        *,
        pricing: "MachineProfile | CostModel",
        kind: str = "multigrid-v",
        max_level: int,
        accuracies: tuple[float, ...],
        backend: str = "numpy",
        aggregate: str = "max",
        max_sor_iters: int = 400,
        max_recurse_iters: int = 64,
    ) -> "TuneSpec":
        """The spec of a tune over ``training``."""
        return cls(
            key=TuneKey(
                kind=kind,
                distribution=training.distribution,
                max_level=max_level,
                accuracies=accuracies,
                seed=training.seed,
                instances=training.instances,
                operator=training.operator_name,
                backend=backend,
            ),
            pricing=pricing,
            aggregate=str(aggregate),
            max_sor_iters=max_sor_iters,
            max_recurse_iters=max_recurse_iters,
        )

    def training(self) -> TrainingData:
        """Fresh training data for the key (deterministic per seed)."""
        return TrainingData(
            distribution=self.key.distribution,
            instances=self.key.instances,
            seed=self.key.seed,
            operator=self.key.operator,
        )

    def timing(self) -> CostModelTiming:
        """Evaluation pricing, as the tuners' timing strategy."""
        return CostModelTiming(self.pricing)

    def build(
        self,
        training: TrainingData | None = None,
        *,
        vplan: TunedVPlan | None = None,
    ) -> VCycleTuner | FullMGTuner:
        """The DP tuner for this spec: V-cycle, or full MG over ``vplan``.

        ``training`` shares one training set (and its memoized reference
        solutions) between the V and full-MG passes of one tune.
        """
        common: dict[str, Any] = dict(
            training=training or self.training(),
            timing=self.timing(),
            max_sor_iters=self.max_sor_iters,
            max_recurse_iters=self.max_recurse_iters,
            aggregate=self.aggregate,
            keep_audit=False,
        )
        if vplan is not None:
            return FullMGTuner(vplan=vplan, **common)
        return VCycleTuner(
            max_level=self.key.max_level,
            accuracies=self.key.accuracies,
            backend=self.key.backend,
            **common,
        )


def tune(
    spec: TuneSpec,
    jobs: Any = None,
    *,
    tuner: str = "dp",
    model: "CostModel | None" = None,
    search_seed: int | None = 0,
    vplan: TunedVPlan | None = None,
) -> TunedVPlan | TunedFullMGPlan:
    """Tune the plan ``spec`` describes.

    ``tuner="model"`` runs the budgeted
    :class:`~repro.modeltuner.bo.BOSearch` for the V plan: the spec's
    pricing prices its evaluations, ``model`` (or else the spec's
    pricing) steers its acquisition, ``search_seed`` seeds its candidate
    picks, and ``jobs`` is where its candidates run — an int (``None``/1
    serial, N > 1 a process pool this call opens and closes) or a
    caller-owned :class:`~repro.parallel.TrialExecutor`, which is left
    open.  DP tunes accept ``jobs`` and run serially (no pool starts):
    each level's accuracy slots read one set of training runs per
    candidate.  Full-MG keys then tune FULL-MULTIGRID on top of the V
    plan — or on top of ``vplan``, when a caller supplies one.
    """
    if tuner not in ("dp", "model"):
        raise ValueError(f"unknown tuner {tuner!r}; use 'dp' or 'model'")
    from repro.parallel import resolve_executor

    executor = resolve_executor(jobs)
    try:
        training = spec.training()
        search = None
        if vplan is None:
            if tuner == "model":
                from repro.modeltuner.bo import BOSearch

                search = BOSearch(
                    max_level=spec.key.max_level,
                    accuracies=spec.key.accuracies,
                    training=training,
                    pricing=spec.pricing,
                    model=model,
                    seed=search_seed,
                    max_sor_iters=spec.max_sor_iters,
                    max_recurse_iters=spec.max_recurse_iters,
                    aggregate=spec.aggregate,
                    backend=spec.key.backend,
                    trial_executor=executor,
                )
                vplan = search.tune()
            else:
                vplan = spec.build(training).tune()
            if spec.key.kind == "multigrid-v":
                return vplan
        full_mg = spec.build(training, vplan=vplan)
        plan = full_mg.tune(spec.key.max_level)
        if search is not None:
            # The full-MG pass stamps its own metadata; keep the model
            # tuner's identity and budget accounting on the composite plan.
            plan.metadata["tuner"] = "model"
            plan.metadata["search_seed"] = search_seed
            plan.metadata["trials_used"] = search.trials_used
            if "model_fingerprint" in vplan.metadata:
                plan.metadata["model_fingerprint"] = vplan.metadata["model_fingerprint"]
        return plan
    finally:
        if executor is not jobs:
            executor.close()


def tune_pair(
    max_level: int,
    machine: "MachineProfile",
    distribution: str,
    seed: int,
) -> tuple[TunedVPlan, TunedFullMGPlan]:
    """Tune (V, full-MG) plans priced on ``machine``: one full-MG tune at
    the default ladder and instance count, whose solve-phase V plan is
    tuned on the same training set."""
    key = TuneKey(
        kind="full-multigrid", distribution=distribution, max_level=max_level, seed=seed
    )
    fplan = tune(TuneSpec(key, pricing=machine))
    return fplan.vplan, fplan
