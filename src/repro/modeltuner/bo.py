"""Deterministic model-guided Bayesian-optimization search over cycle shapes.

The exhaustive DP trains *every* candidate at every (level, accuracy)
slot — ``(max_level - 1) * m * (m + 1)`` iteration-training runs for an
``m``-accuracy ladder.  :class:`BOSearch` runs the same bottom-up sweep
but spends training runs selectively, the way the surrogate-driven
autotuners in Wu et al. (arXiv:2010.08040) spend benchmark evaluations:

* a **surrogate** predicts each candidate's cost as (predicted seconds
  per unit cycle) x (predicted iterations).  Seconds come from the
  learned :class:`~repro.modeltuner.costmodel.CostModel` when one is
  supplied, otherwise from the search's pricing;
  iteration counts come from convergence priors (``ceil(ln p_i / ln
  p_j)`` for RECURSE_j, an SOR spectral estimate) refined by every
  trained candidate observed so far;
* a **lower-confidence acquisition** ranks candidates per slot —
  unobserved candidates get an optimism bonus so the search keeps
  exploring — and only the top few are actually trained (all-but-one
  exploration happens at the cheapest level, exploitation above), plus a
  seeded epsilon-greedy exploration draw;
* the DIRECT candidate is exact and needs no iteration training, so it
  is always evaluated free and every slot is guaranteed feasible.

Every candidate evaluation — serial or parallel — is the DP's own
pool task, a :class:`~repro.parallel.tasks.CandidateTask` carrying this
search's :class:`~repro.tuner.spec.TuneSpec`, evaluated with an infinite
pruning budget, so a given seed selects a byte-identical plan at any
``jobs`` count.  The spec prices evaluation with the search's pricing;
a learned model given beside it only steers acquisition.  The
returned plan carries ``tuner="model"`` metadata with the trial budget
actually spent.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Any

from repro.machines.profile import MachineProfile
from repro.modeltuner.costmodel import CostModel
from repro.tuner.choices import Choice, DirectChoice
from repro.tuner.dp import probe_choice, select_fastest, tuning_metadata
from repro.tuner.plan import DEFAULT_ACCURACIES, TunedVPlan
from repro.tuner.spec import TuneSpec
from repro.tuner.timing import CostModelTiming
from repro.tuner.training import TrainingData
from repro.util.validation import size_of_level

__all__ = ["BOSearch", "dp_trial_budget"]

#: Optimism (lower-confidence) multipliers by observation state: an
#: unobserved arm prices below its mean prediction so the acquisition
#: keeps exploring; an arm observed at a lower level is nearly trusted.
_SIGMA_UNOBSERVED = 0.3
_SIGMA_TRANSFERRED = 0.1


def dp_trial_budget(max_level: int, num_accuracies: int) -> int:
    """Iteration-training runs the exhaustive DP spends on the same space
    (per slot: m RECURSE candidates + 1 SOR; DIRECT trains nothing)."""
    return max(0, max_level - 1) * num_accuracies * (num_accuracies + 1)


@dataclass
class BOSearch:
    """Budgeted model-guided tuner for the MULTIGRID-V_i family.

    Drop-in alternative to :class:`~repro.tuner.dp.VCycleTuner`:
    same ``tune() -> TunedVPlan`` surface, same training data and
    executor protocol, a fraction of the trial budget.  ``pricing``
    (a machine profile or a fitted cost model) prices every evaluated
    candidate; a ``model`` beside it only steers *which* candidates
    train.  ``model`` alone prices everything with the learned model
    (the cold-machine path, where no trusted profile exists).
    """

    max_level: int
    accuracies: tuple[float, ...] = DEFAULT_ACCURACIES
    training: TrainingData = field(default_factory=TrainingData)
    #: evaluation pricing; ``None`` prices with ``model``
    pricing: MachineProfile | CostModel | None = None
    #: learned surrogate steering acquisition; a fitted ``pricing``
    #: steers when none is given
    model: CostModel | None = None
    seed: int | None = 0
    #: trained candidates per slot at the base level (exploration)
    explore: int = 2
    #: trained candidates per slot above the base level (exploitation)
    exploit: int = 1
    #: seeded chance of training one extra unobserved candidate per slot
    epsilon: float = 0.1
    max_sor_iters: int = 400
    max_recurse_iters: int = 64
    aggregate: str = "max"
    backend: str = "numpy"
    #: optional :class:`repro.store.sink.TrialSink` (same hook as the DP)
    sink: Any | None = None
    #: optional :class:`repro.parallel.TrialExecutor`
    trial_executor: Any | None = None

    def __post_init__(self) -> None:
        if self.pricing is None:
            if self.model is None:
                raise ValueError("BOSearch needs a pricing, a model, or both")
            self.pricing = self.model
        if self.model is None and isinstance(self.pricing, CostModel):
            self.model = self.pricing
        if self.max_level < 2:
            raise ValueError("BOSearch tunes levels >= 2")
        if self.explore < 1 or self.exploit < 1:
            raise ValueError("explore and exploit must be >= 1")
        #: what every evaluation task carries (and prices by)
        self.spec = TuneSpec.from_training(
            self.training,
            pricing=self.pricing,
            max_level=self.max_level,
            accuracies=self.accuracies,
            backend=self.backend,
            aggregate=self.aggregate,
            max_sor_iters=self.max_sor_iters,
            max_recurse_iters=self.max_recurse_iters,
        )
        # Parent-side tuner: owns backend placement, the plan each level
        # is priced on, and plan metadata; workers build the same one
        # from the spec.
        self._tuner = self.spec.build(self.training)
        self._timing: CostModelTiming = self.spec.timing()
        # Acquisition pricing: the learned model when available (its
        # predictions are the point of the exercise), else the pricing.
        self._acq = CostModelTiming(self.model) if self.model is not None else self._timing
        #: (kind, acc_index, sub_j) -> (level, iterations) observations;
        #: iterations is math.inf for trained-but-infeasible arms
        self._observed: dict[tuple[str, int, int | None], tuple[int, float]] = {}
        self.trials_used = 0

    # -- public API -------------------------------------------------------

    def tune(self) -> TunedVPlan:
        """Run the budgeted bottom-up search and return the tuned plan."""
        from repro.obs.runtime import get_tracer
        from repro.parallel.executor import SerialExecutor

        start = time.perf_counter()
        executor = self.trial_executor or SerialExecutor()
        rng = random.Random(f"{self.seed}|model-bo")
        m = len(self.accuracies)
        table: dict[tuple[int, int], Choice] = {}
        for i in range(m):
            table[(1, i)] = DirectChoice()
        tracer = get_tracer()
        with tracer.span(
            "modeltuner.tune",
            max_level=self.max_level,
            operator=self.training.operator_name,
            backend=self._tuner.backend,
            surrogate="model" if self.model is not None else "profile",
        ):
            for level in range(2, self.max_level + 1):
                with tracer.span("modeltuner.level", level=level):
                    self._tune_level(level, table, executor, rng)
        plan = self._build_plan(table, time.perf_counter() - start)
        return plan

    # -- per-level search -------------------------------------------------

    def _tune_level(
        self,
        level: int,
        table: dict[tuple[int, int], Choice],
        executor: Any,
        rng: random.Random,
    ) -> None:
        from repro.obs.runtime import get_tracer

        m = len(self.accuracies)
        n = size_of_level(level)
        plan = self._tuner._plan_below(table, level)
        # Acquisition: pick which trained candidates each slot evaluates.
        # Decided for the whole level before any evaluation runs, so the
        # task batch (and with it the seeded rng stream) is independent
        # of executor parallelism.
        chosen: list[list[tuple[str, int | None]]] = []
        for i in range(m):
            picks = self._acquire_slot(level, i, n, plan, rng)
            # DIRECT is exact (no iteration training) so it always
            # evaluates: free feasibility floor for every slot.
            chosen.append([("direct", None), *picks])
            get_tracer().event(
                "modeltuner.acquire",
                level=level,
                acc_index=i,
                picks=",".join(self._label(kind, j) for kind, j in picks),
            )
        outcomes = self._evaluate(level, table, chosen, executor)
        # Second chance: a slot whose trained picks all came back
        # infeasible retrains the remaining candidates rather than
        # falling back to DIRECT at whatever price.
        retry: list[list[tuple[str, int | None]]] = []
        for i in range(m):
            trained = [
                (cand, out)
                for cand, out in outcomes[i]
                if cand[0] != "direct"
            ]
            if trained and not any(out.feasible for _, out in trained):
                evaluated = {cand for cand, _ in outcomes[i]}
                retry.append(
                    [c for c in self._slot_candidates() if c not in evaluated]
                )
            else:
                retry.append([])
        if any(retry):
            extra = self._evaluate(level, table, retry, executor)
            for i in range(m):
                outcomes[i].extend(extra[i])
        for i in range(m):
            self._record_observations(level, i, outcomes[i])
            table[(level, i)] = self._select(level, i, outcomes[i])

    def _slot_candidates(self) -> list[tuple[str, int | None]]:
        """Trained candidates in the DP's enumeration order (no DIRECT)."""
        return self._tuner._candidate_order()[1:]

    def _acquire_slot(
        self,
        level: int,
        acc_index: int,
        n: int,
        plan: TunedVPlan,
        rng: random.Random,
    ) -> list[tuple[str, int | None]]:
        """The trained candidates this slot will actually evaluate."""
        scored: list[tuple[float, int, tuple[str, int | None]]] = []
        unobserved: list[tuple[float, int, tuple[str, int | None]]] = []
        for idx, (kind, j) in enumerate(self._slot_candidates()):
            cost, state = self._predict(level, acc_index, kind, j, n, plan)
            entry = (cost, idx, (kind, j))
            if math.isfinite(cost):
                scored.append(entry)
            if state == "unobserved" and math.isfinite(cost):
                unobserved.append(entry)
        scored.sort()
        budget = self.explore if level == 2 else self.exploit
        picks = [cand for _, _, cand in scored[:budget]]
        if not picks:
            # Every arm was observed infeasible at a lower level; those
            # observations may not transfer, so probe in candidate order
            # (the second-round fallback covers the rest if need be).
            picks = self._slot_candidates()[:budget]
        # Seeded epsilon-greedy exploration above the base level: one
        # deterministic draw per slot, consumed whether or not it fires.
        if level > 2:
            draw = rng.random()
            if draw < self.epsilon:
                for _, _, cand in sorted(unobserved):
                    if cand not in picks:
                        picks.append(cand)
                        break
        return picks

    def _predict(
        self,
        level: int,
        acc_index: int,
        kind: str,
        j: int | None,
        n: int,
        plan: TunedVPlan,
    ) -> tuple[float, str]:
        """(acquisition cost, observation state) for one candidate arm."""
        iters, state = self._predicted_iters(level, acc_index, kind, j, n)
        if not math.isfinite(iters):
            return math.inf, state
        unit_cost = self._acq.price(plan.choice_meter(level, probe_choice(kind, j)))
        sigma = {
            "observed": 0.0,
            "transferred": _SIGMA_TRANSFERRED,
            "unobserved": _SIGMA_UNOBSERVED,
        }[state]
        return unit_cost * iters * math.exp(-sigma), state

    def _predicted_iters(
        self, level: int, acc_index: int, kind: str, j: int | None, n: int
    ) -> tuple[float, str]:
        obs = self._observed.get((kind, acc_index, j))
        if obs is not None:
            obs_level, iters = obs
            if not math.isfinite(iters):
                return math.inf, "observed"
            if kind == "sor" and obs_level != level:
                # SOR iteration counts grow ~linearly with side length.
                iters = min(
                    float(self.max_sor_iters), iters * 2.0 ** (level - obs_level)
                )
            state = "observed" if obs_level == level else "transferred"
            return float(iters), state
        target = self.accuracies[acc_index]
        if kind == "recurse":
            assert j is not None
            sub = self.accuracies[j]
            if sub >= target or sub <= 1.0:
                prior = 1.0
            else:
                prior = math.ceil(math.log(target) / math.log(sub))
            return min(float(self.max_recurse_iters), max(prior, 1.0)), "unobserved"
        # SOR with optimal omega: convergence factor ~ 1 - 2*pi/n, so
        # reaching an error reduction of ``target`` takes ~ n*ln(p)/(2*pi).
        prior = n * math.log(max(target, math.e)) / (2.0 * math.pi)
        return min(float(self.max_sor_iters), max(prior, 1.0)), "unobserved"

    # -- evaluation (single code path, serial == parallel) ----------------

    def _evaluate(
        self,
        level: int,
        table: dict[tuple[int, int], Choice],
        picks: list[list[tuple[str, int | None]]],
        executor: Any,
    ) -> list[list[tuple[tuple[str, int | None], Any]]]:
        """Evaluate per-slot candidate picks (plus DIRECT on the first
        round) through the picklable worker path, in deterministic order."""
        from repro.parallel.tasks import CandidateTask, evaluate_candidate

        frozen_table = tuple(sorted(table.items()))
        tasks: list[CandidateTask] = []
        m = len(self.accuracies)
        for i in range(m):
            for kind, j in picks[i]:
                tasks.append(CandidateTask(self.spec, level, frozen_table, i, kind, j))
                if kind != "direct":
                    self.trials_used += 1
        outcomes = executor.map(evaluate_candidate, tasks)
        per_slot: list[list[tuple[tuple[str, int | None], Any]]] = [
            [] for _ in range(m)
        ]
        for task, outcome in zip(tasks, outcomes):
            per_slot[task.acc_index].append(((task.kind, task.sub_accuracy), outcome))
        return per_slot

    def _record_observations(
        self,
        level: int,
        acc_index: int,
        outcomes: list[tuple[tuple[str, int | None], Any]],
    ) -> None:
        for (kind, j), outcome in outcomes:
            if kind == "direct":
                continue
            if outcome.feasible and outcome.choice is not None:
                iters = float(getattr(outcome.choice, "iterations", 1))
            else:
                iters = math.inf
            self._observed[(kind, acc_index, j)] = (level, iters)

    def _select(
        self,
        level: int,
        acc_index: int,
        outcomes: list[tuple[tuple[str, int | None], Any]],
    ) -> Choice:
        """Fold evaluated outcomes as the DP does: a strict ``<`` in its
        candidate enumeration order (direct, recurse m-1..0, sor)."""
        order = self._tuner._candidate_order()
        ranked = sorted(outcomes, key=lambda pair: order.index(pair[0]))
        return select_fastest(level, acc_index, [outcome for _, outcome in ranked])

    # -- plan assembly ----------------------------------------------------

    def _build_plan(
        self, table: dict[tuple[int, int], Choice], wall_seconds: float
    ) -> TunedVPlan:
        m = len(self.accuracies)
        budget = dp_trial_budget(self.max_level, m)
        metadata = tuning_metadata(
            "multigrid-v", self.training, self._timing, self.aggregate
        )
        if self._tuner.backend != "numpy":
            metadata["backend"] = self._tuner.backend
        metadata.update(
            {
                "tuner": "model",
                "search_seed": self.seed,
                "trials_used": self.trials_used,
                "trial_budget_dp": budget,
                "budget_fraction": (
                    round(self.trials_used / budget, 4) if budget else 0.0
                ),
            }
        )
        if self.model is not None:
            metadata["model_fingerprint"] = self.model.fingerprint()
        plan = TunedVPlan(
            accuracies=self.accuracies,
            max_level=self.max_level,
            table=table,
            metadata=metadata,
            ndim=self.training.ndim,
            backends=self._tuner._backends_through(self.max_level),
        )
        if self.sink is not None:
            from repro.store.sink import emit_tuning_trial

            emit_tuning_trial(
                self.sink, plan, self._timing, self.training, wall_seconds
            )
        return plan

    @staticmethod
    def _label(kind: str, j: int | None) -> str:
        return kind if j is None else f"{kind}_{j}"
