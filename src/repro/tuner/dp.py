"""The discrete dynamic-programming autotuner (paper sections 2.1-2.3).

Bottom-up over levels: level 1 (3x3) is solved directly; at each higher
level k and for each accuracy target p_i, the tuner

1. trains the iteration count of every candidate — SOR(omega_opt) and
   RECURSE_j for each already-tuned sub-accuracy j — on the training
   instances ("the autotuner first computes the number of iterations needed
   for the SOR and RECURSE_j choices", section 4.1),
2. times each feasible candidate (cost model or wall clock), and
3. keeps the fastest, producing the MULTIGRID-V_i family.

Because the optimal choice for accuracy p_i at level k may recurse into
*any* accuracy p_j at level k-1, all accuracies at a level are tuned before
moving up — the paper's key departure from single-accuracy tuning.  Level
k is tuned on the plan built through level k-1: candidates are priced from
its meters and trained and run on it through the executor.

A candidate's training run depends neither on the accuracy target, which
only sets where it stops, nor on the candidate's label: only on the
computation its step performs.  So each distinct step of a level is
trained once per training instance, with the accuracy recorded after
every step (:class:`~repro.accuracy.estimator.Trajectories`): RECURSE_j
candidates whose coarse sub-plans are the same choice tree
(:meth:`~repro.tuner.plan.TunedVPlan.choice_key`) share one set of runs,
and every slot reads its iteration count off them under its own pruning
cap — the plan and audit are those of training every slot from fresh
starts.  Because a level's slots share the runs, the DP tunes serially;
only :class:`~repro.modeltuner.bo.BOSearch` fans candidates out to a
pool.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

import numpy as np

from repro.accuracy.estimator import Aggregate, InfeasibleCandidate, Trajectories
from repro.tuner.choices import Choice, DirectChoice, RecurseChoice, SORChoice
from repro.tuner.executor import PlanExecutor
from repro.tuner.plan import DEFAULT_ACCURACIES, TunedVPlan, level_backend
from repro.tuner.timing import CostModelTiming, TimingStrategy
from repro.tuner.training import TrainingData

__all__ = [
    "CandidateOutcome",
    "CandidateReport",
    "VCycleTuner",
    "probe_choice",
    "recurse_step",
    "select_fastest",
    "sor_step",
    "tuning_metadata",
]

#: filter(level, acc_index, choice) -> bool; False removes the candidate.
CandidateFilter = Callable[[int, int, Choice], bool]


def tuning_metadata(kind: str, training: TrainingData, timing, aggregate) -> dict:
    """Base metadata of a tuned plan (shared by both DP tuners).

    The operator is recorded only when non-default, so default-path plan
    JSON (and stored registry bytes) match pre-operator-layer plans —
    the rule the solve()-side operator-mismatch check relies on.
    """
    metadata = {
        "kind": kind,
        "distribution": training.distribution,
        "instances": training.instances,
        "seed": training.seed,
        "aggregate": aggregate,
        "timing": type(timing).__name__,
    }
    if not training.operator.is_default_poisson:
        metadata["operator"] = training.operator_name
    profile = getattr(timing, "profile", None)
    if profile is not None:
        metadata["profile"] = profile.name
    return metadata


def probe_choice(kind: str, j: int | None) -> DirectChoice | RecurseChoice | SORChoice:
    """One application of a candidate kind: what the candidate_filter
    sees, and what budget pruning prices."""
    if kind == "direct":
        return DirectChoice()
    if kind == "recurse":
        assert j is not None
        return RecurseChoice(sub_accuracy=j, iterations=1)
    if kind == "sor":
        return SORChoice(iterations=1)
    raise ValueError(f"unknown candidate kind {kind!r}")


def sor_step(executor: PlanExecutor, plan: TunedVPlan, level: int):
    """One standalone SOR(omega_opt) sweep at ``level`` on the plan's
    kernel backend — the step SOR iteration counts are trained with."""
    kernels = executor._kernels(level, plan.backend_at(level))
    omega = executor._op(level).omega_opt()

    def step(x: np.ndarray, b: np.ndarray) -> None:
        kernels.sor_sweeps(x, b, omega, 1)

    return step


def recurse_step(executor: PlanExecutor, plan: TunedVPlan, level: int, sub_accuracy: int):
    """One RECURSE_j application at ``level`` over the plan's levels below."""

    def step(x: np.ndarray, b: np.ndarray) -> None:
        executor._recurse_once(plan, x, b, level, sub_accuracy)

    return step


@dataclass(frozen=True)
class CandidateReport:
    """Audit record of one candidate evaluation (kept in plan metadata)."""

    level: int
    acc_index: int
    description: str
    seconds: float
    feasible: bool
    chosen: bool = False


@dataclass(frozen=True)
class CandidateOutcome:
    """Result of evaluating one candidate for one (level, accuracy) slot.

    Picklable (choices are frozen dataclasses), so parallel trial
    executors can ship outcomes back from worker processes.
    """

    description: str
    seconds: float
    feasible: bool
    choice: Choice | None


def select_fastest(
    level: int,
    acc_index: int,
    outcomes: Sequence[CandidateOutcome],
    audit: list[CandidateReport] | None = None,
) -> Choice:
    """The fastest feasible outcome of one slot.

    Folds in the given (enumeration) order with a strict ``<``, the
    tie-break every tuner shares — serial or parallel, DP or BO — so all
    of them pick the same winner from the same outcomes.  Appends one
    audit record per outcome when ``audit`` is given.
    """
    best_choice: Choice | None = None
    best_time = math.inf
    for outcome in outcomes:
        if outcome.feasible and outcome.seconds < best_time:
            best_choice, best_time = outcome.choice, outcome.seconds
    if best_choice is None:
        raise RuntimeError(
            f"no feasible candidate at level {level}, accuracy index {acc_index} "
            f"(candidate_filter too restrictive?)"
        )
    if audit is not None:
        chosen = best_choice.describe()
        audit.extend(
            CandidateReport(
                level,
                acc_index,
                outcome.description,
                outcome.seconds,
                outcome.feasible,
                chosen=(outcome.feasible and outcome.description == chosen),
            )
            for outcome in outcomes
        )
    return best_choice


@dataclass
class VCycleTuner:
    """Tunes the MULTIGRID-V_i family up to ``max_level``.

    Parameters mirror the paper's setup: five discrete accuracy levels by
    default, worst-case aggregation of trained iteration counts, and a
    search capped by per-candidate iteration budgets.  ``candidate_filter``
    restricts the choice set (used to express the heuristic strategies of
    Figure 7 inside the same machinery).
    """

    max_level: int
    accuracies: tuple[float, ...] = DEFAULT_ACCURACIES
    training: TrainingData = field(default_factory=TrainingData)
    timing: TimingStrategy | None = None
    max_sor_iters: int = 400
    max_recurse_iters: int = 64
    aggregate: Aggregate = "max"
    candidate_filter: CandidateFilter | None = None
    keep_audit: bool = True
    #: optional :class:`repro.store.sink.TrialSink`; each ``tune()`` call
    #: reports one trial record to it (duck-typed so the tuner layer does
    #: not import the store at module scope)
    sink: Any | None = None
    #: kernel backend tuning dimension: ``"numpy"`` (default, bare-op
    #: pricing and byte-identical plans), an accelerated backend name, or
    #: ``"auto"`` (resolved to the best backend available on this host)
    backend: str = "numpy"

    def __post_init__(self) -> None:
        if self.max_level < 1:
            raise ValueError("max_level must be >= 1")
        if self.timing is None:
            from repro.machines.presets import INTEL_HARPERTOWN

            self.timing = CostModelTiming(INTEL_HARPERTOWN)
        self._executor = PlanExecutor(operator=self.training.operator)
        #: grid dimensionality of the training operator (op vocabulary)
        self._ndim = self.training.ndim
        from repro.kernels import resolve_backend

        self.backend = resolve_backend(self.backend)
        # Lazy per-level backend placement (worker pools reuse one tuner
        # across levels beyond its construction-time max_level).
        self._level_backends: dict[int, str] = {}
        # Training runs of the level being tuned, per step key, and the
        # plan below it they run on (see _trajectories).
        self._trained_on: TunedVPlan | None = None
        self._trained: dict[Any, Trajectories] = {}

    def _backend_at(self, level: int) -> str:
        cached = self._level_backends.get(level)
        if cached is None:
            # Pricing-driven placement needs a cost model; wall-clock
            # tuning accelerates every supported level (cannot price
            # dispatch).
            pricing = self.timing if isinstance(self.timing, CostModelTiming) else None
            cached = level_backend(
                self.backend, level, self._ndim, self.training.operator, pricing
            )
            self._level_backends[level] = cached
        return cached

    def _backends_through(self, level: int) -> dict[int, str]:
        """Backend placement for levels 2..level (non-numpy entries)."""
        return {
            lv: self._backend_at(lv)
            for lv in range(2, level + 1)
            if self._backend_at(lv) != "numpy"
        }

    # -- public API ---------------------------------------------------------

    def tune(self) -> TunedVPlan:
        """Run the bottom-up DP and return the tuned plan."""
        start = time.perf_counter()
        m = len(self.accuracies)
        table: dict[tuple[int, int], Choice] = {}
        audit: list[CandidateReport] = []
        for i in range(m):
            table[(1, i)] = DirectChoice()
        for level in range(2, self.max_level + 1):
            self._tune_level(level, table, audit)
        metadata = tuning_metadata("multigrid-v", self.training, self.timing, self.aggregate)
        if self.backend != "numpy":
            metadata["backend"] = self.backend
        if self.keep_audit:
            metadata["audit"] = audit
        plan = TunedVPlan(
            accuracies=self.accuracies,
            max_level=self.max_level,
            table=table,
            metadata=metadata,
            ndim=self._ndim,
            backends=self._backends_through(self.max_level),
        )
        if self.sink is not None:
            from repro.store.sink import emit_tuning_trial

            emit_tuning_trial(
                self.sink, plan, self.timing, self.training,
                wall_seconds=time.perf_counter() - start,
            )
        return plan

    # -- per-level tuning -----------------------------------------------------

    def _tune_level(
        self,
        level: int,
        table: dict[tuple[int, int], Choice],
        audit: list[CandidateReport],
    ) -> None:
        plan = self._plan_below(table, level)
        m = len(self.accuracies)
        outcomes: list[list[CandidateOutcome]] = [[] for _ in range(m)]
        best_time = [math.inf] * m
        # Candidate by candidate, so one step's training runs are alive at
        # a time: they go once the next candidate trains a different
        # step.  Each slot still sees its candidates in enumeration order,
        # each pruned against the fastest feasible one before it, so
        # outcomes are those of a slot-by-slot walk.
        order = self._candidate_order()
        keys = [plan.choice_key(level, probe_choice(kind, j)) for kind, j in order]
        for n, (kind, j) in enumerate(order):
            for i in range(m):
                if self.candidate_filter is not None and not self.candidate_filter(
                    level, i, probe_choice(kind, j)
                ):
                    continue
                outcome = self._evaluate_candidate(plan, level, i, kind, j, best_time[i])
                outcomes[i].append(outcome)
                if outcome.feasible:
                    best_time[i] = min(best_time[i], outcome.seconds)
            if keys[n + 1 : n + 2] != [keys[n]]:
                self._drop_runs()
        kept = audit if self.keep_audit else None
        for i in range(m):
            table[(level, i)] = select_fastest(level, i, outcomes[i], kept)

    def _plan_below(
        self, table: dict[tuple[int, int], Choice], level: int
    ) -> TunedVPlan:
        """The plan tuned through ``level - 1``, with backends placed
        through ``level``: every candidate for ``level`` is priced and
        run on it."""
        return TunedVPlan(
            self.accuracies,
            level - 1,
            dict(table),
            ndim=self._ndim,
            backends=self._backends_through(level),
        )

    def _candidate_order(self) -> list[tuple[str, int | None]]:
        """Candidate enumeration order for one slot.

        Direct first, then RECURSE_j highest sub-accuracy first (fewest
        outer iterations, so later candidates get a tight pruning budget
        early), then standalone SOR.
        """
        m = len(self.accuracies)
        order: list[tuple[str, int | None]] = [("direct", None)]
        order.extend(("recurse", j) for j in range(m - 1, -1, -1))
        order.append(("sor", None))
        return order

    def _evaluate_candidate(
        self,
        plan: TunedVPlan,
        level: int,
        acc_index: int,
        kind: str,
        j: int | None,
        best_time: float,
    ) -> CandidateOutcome:
        """Train and time one candidate against a pruning budget.

        ``plan`` is :meth:`_plan_below` ``level``.  ``best_time`` is the
        fastest feasible candidate seen so far for this slot;
        ``math.inf`` disables pruning (``BOSearch``, which observes
        every trained iteration count).  Every slot of the level reads
        its iteration count off the candidate's one set of training runs.
        """
        probe = probe_choice(kind, j)
        if isinstance(probe, DirectChoice):
            # Direct: exact, always feasible.
            return self._outcome(plan, level, probe)
        hard_cap = (
            self.max_recurse_iters if isinstance(probe, RecurseChoice) else self.max_sor_iters
        )
        unit_cost = self.timing.price(plan.choice_meter(level, probe))
        cap = self._budget_cap(unit_cost, best_time, hard_cap)
        if cap < 1:
            return CandidateOutcome(probe.describe() + " [pruned]", math.inf, False, None)
        try:
            iters = self._trajectories(plan, level, probe).iterations(
                self.accuracies[acc_index], cap, self.aggregate
            )
        except InfeasibleCandidate:
            return CandidateOutcome(probe.describe(), math.inf, False, None)
        return self._outcome(plan, level, replace(probe, iterations=max(iters, 1)))

    def _trajectories(
        self, plan: TunedVPlan, level: int, probe: RecurseChoice | SORChoice
    ) -> Trajectories:
        """The training runs of ``probe``'s step on ``plan``, shared by
        every slot of ``level`` and by every candidate whose step has the
        same :meth:`~repro.tuner.plan.TunedVPlan.choice_key` (and by every
        ``BOSearch`` task of the level a worker gets); a different plan
        means the level moved on, and the runs go."""
        if plan != self._trained_on:
            self._drop_runs()
            self._trained_on = plan
        key = plan.choice_key(level, probe)
        runs = self._trained.get(key)
        if runs is None:
            if isinstance(probe, RecurseChoice):
                step = recurse_step(self._executor, plan, level, probe.sub_accuracy)
            else:
                step = sor_step(self._executor, plan, level)
            bundle = self.training.at_level(level)
            runs = Trajectories(step, bundle.fresh_starts(), bundle.accuracy_fns())
            self._trained[key] = runs
        return runs

    def _drop_runs(self) -> None:
        """Release the training runs of the level trained last."""
        self._trained_on, self._trained = None, {}

    def _outcome(self, plan: TunedVPlan, level: int, choice: Choice) -> CandidateOutcome:
        """A trained candidate, timed: priced from the plan's meter, or
        run end to end when the timing measures wall-clock."""
        meter = plan.choice_meter(level, choice)
        if isinstance(self.timing, CostModelTiming):
            seconds = self.timing.time_candidate(meter)
        else:
            seconds = self.timing.time_candidate(
                meter,
                self._v_run(plan, level, choice),
                self.training.at_level(level).fresh_starts(),
            )
        return CandidateOutcome(choice.describe(), seconds, True, choice)

    @staticmethod
    def _budget_cap(unit_cost: float, best_time: float, hard_cap: int) -> int:
        """Iterations beyond which a candidate cannot beat ``best_time``."""
        if unit_cost <= 0.0 or math.isinf(best_time):
            return hard_cap
        return min(hard_cap, int(best_time / unit_cost) + 1)

    def _v_run(self, plan: TunedVPlan, level: int, choice: Choice):
        """Wall-clock run of a candidate: the plan extended to ``level``
        with ``choice`` in every slot there."""
        table = dict(plan.table)
        table.update({(level, i): choice for i in range(len(self.accuracies))})
        probe = TunedVPlan(
            self.accuracies, level, table, ndim=self._ndim, backends=plan.backends
        )
        executor = self._executor

        def run(x: np.ndarray, b: np.ndarray) -> None:
            executor.run_v(probe, x, b, 0)

        return run
