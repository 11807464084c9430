"""The discrete dynamic-programming autotuner (paper sections 2.1-2.4).

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
its meters and trained and run on it through the executor.  Training only
reads the bytes a run leaves, so priced tunes train on the fastest
available kernels (:class:`~repro.tuner.executor.TrainingExecutor`)
whatever backend the plan places; wall-clock tunes run the placement.

FULL-MULTIGRID is tuned "bottom-up the same way" (section 2.4): the same
slot loop (:class:`SlotTuner`) walks both families, and only the
candidate lists differ — :class:`VCycleTuner`'s above, and
:class:`~repro.tuner.full_mg.FullMGTuner`'s ESTIMATE_j followed by a
solver step.

A candidate's training run depends neither on the accuracy target, which
only sets where it stops, nor on the candidate's label: only on the
state it starts from and the computation its step performs.  So each
distinct (start, step) pair of a level is trained once per training
instance, with the accuracy recorded after every step
(:class:`~repro.accuracy.estimator.Trajectories`): candidates whose
steps are the same choice tree (:meth:`~repro.tuner.plan.TunedVPlan.choice_key`)
from the same starts share one set of runs, and every slot reads its
iteration count off them under its own pruning cap — the plan and audit
are those of training every slot from fresh starts.  Because a level's
slots share the runs, the DP tunes serially; only
:class:`~repro.modeltuner.bo.BOSearch` fans candidates out to a pool.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

import numpy as np

from repro.accuracy.estimator import Aggregate, InfeasibleCandidate, Trajectories
from repro.tuner.choices import Choice, DirectChoice, EstimateChoice, RecurseChoice, SORChoice
from repro.tuner.executor import PlanExecutor, TrainingExecutor
from repro.tuner.plan import DEFAULT_ACCURACIES, TunedFullMGPlan, TunedVPlan, level_backend
from repro.tuner.timing import CostModelTiming, TimingStrategy
from repro.tuner.training import TrainingData

__all__ = [
    "CandidateOutcome",
    "CandidateReport",
    "SlotTuner",
    "VCycleTuner",
    "check_caps",
    "emit_trial",
    "recurse_step",
    "select_fastest",
    "sor_step",
    "tuning_metadata",
]

#: filter(level, acc_index, choice) -> bool; False removes the candidate.
CandidateFilter = Callable[[int, int, Choice], bool]


def tuning_metadata(
    kind: str, training: TrainingData, timing, aggregate, backend: str = "numpy"
) -> dict:
    """Base metadata of a tuned plan (shared by every tuner).

    The operator and backend are recorded only when non-default, so
    default-path plan JSON (and stored registry bytes) match
    pre-operator-layer plans — the rule the solve()-side
    operator-mismatch check relies on.
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
    if backend != "numpy":
        metadata["backend"] = backend
    return metadata


def emit_trial(sink, plan, timing, training: TrainingData, started: float):
    """Report a tune that began at ``started`` (``time.perf_counter``) to
    ``sink`` — a :class:`repro.store.sink.TrialSink` or ``None`` — as one
    trial record, and return its plan."""
    if sink is not None:
        from repro.store.sink import emit_tuning_trial

        emit_tuning_trial(
            sink, plan, timing, training, wall_seconds=time.perf_counter() - started
        )
    return plan


def check_caps(max_sor_iters: int, max_recurse_iters: int) -> None:
    """Reject iteration caps under which no candidate could train."""
    if max_sor_iters < 1 or max_recurse_iters < 1:
        raise ValueError(
            f"max_sor_iters and max_recurse_iters must be >= 1, got "
            f"{max_sor_iters} and {max_recurse_iters}"
        )


def sor_step(executor: PlanExecutor, plan: TunedVPlan, level: int):
    """One standalone SOR(omega_opt) sweep at ``level`` — the step SOR
    iteration counts are trained with — on the kernels ``executor``
    binds for the plan's backend there (a :class:`TrainingExecutor`
    binds the fastest available one; the bytes are the same)."""
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


class SlotTuner:
    """The bottom-up slot loop both DP tuners run.

    A subclass supplies the fields below, :meth:`_plan_below` and
    :meth:`_candidates`: single applications (``iterations=1``) of
    ``direct``, ``sor`` and ``recurse(j)`` for the V family, or of
    ``estimate(j) -> solver`` for full MG.  A candidate trains from fresh
    starts, or from the states its ESTIMATE_j leaves; its solver step
    runs on the V plan.
    """

    accuracies: tuple[float, ...]
    training: TrainingData
    timing: TimingStrategy
    max_sor_iters: int
    max_recurse_iters: int
    aggregate: Aggregate
    keep_audit: bool
    sink: Any
    candidate_filter: CandidateFilter | None = None

    def _setup(self) -> None:
        check_caps(self.max_sor_iters, self.max_recurse_iters)
        if self.timing is None:
            from repro.machines.presets import INTEL_HARPERTOWN

            self.timing = CostModelTiming(INTEL_HARPERTOWN)
        # Priced tuning reads only the bytes a training run leaves, so it
        # trains on the fastest kernels; wall-clock tuning measures what
        # it runs, so it runs the plan's own placement throughout.
        if isinstance(self.timing, CostModelTiming):
            self._executor = TrainingExecutor(operator=self.training.operator)
        else:
            self._executor = PlanExecutor(operator=self.training.operator)
        #: grid dimensionality of the training operator (op vocabulary)
        self._ndim = self.training.ndim
        self._drop_runs()

    def _plan_below(self, table: dict[tuple[int, int], Choice], level: int):
        """The plan tuned through ``level - 1``: every candidate for
        ``level`` is priced and run on it."""
        raise NotImplementedError

    def _candidates(self) -> list[Choice]:
        """One slot's candidates, in enumeration order."""
        raise NotImplementedError

    # -- the level walk -------------------------------------------------------

    def _walk(self, max_level: int, kind: str, backend: str) -> tuple[dict, dict]:
        """Tune levels 2..``max_level`` bottom-up; returns the table and
        the plan metadata."""
        table: dict = {(1, i): DirectChoice() for i in range(len(self.accuracies))}
        audit: list[CandidateReport] = []
        for level in range(2, max_level + 1):
            self._tune_level(level, table, audit)
        metadata = tuning_metadata(kind, self.training, self.timing, self.aggregate, backend)
        if self.keep_audit:
            metadata["audit"] = audit
        return table, metadata

    def _tune_level(self, level: int, table: dict, audit: list[CandidateReport]) -> None:
        """Candidate by candidate, so a run lives only until the last
        candidate that reads it.  Each slot still sees its candidates in
        enumeration order, each pruned against the fastest feasible one
        before it, so outcomes are those of a slot-by-slot walk."""
        plan = self._plan_below(table, level)
        m = len(self.accuracies)
        outcomes: list[list[CandidateOutcome]] = [[] for _ in range(m)]
        best_time = [math.inf] * m
        order = self._candidates()
        keys = [self._run_key(plan, level, probe) for probe in order]
        last_use = {key: n for n, key in enumerate(keys)}
        for n, probe in enumerate(order):
            for i in range(m):
                if self.candidate_filter and not self.candidate_filter(level, i, probe):
                    continue
                outcome = self._evaluate_candidate(plan, level, i, probe, best_time[i])
                if outcome is None:
                    continue
                outcomes[i].append(outcome)
                if outcome.feasible:
                    best_time[i] = min(best_time[i], outcome.seconds)
            if last_use[keys[n]] == n:
                self._trained.pop(keys[n], None)
        self._drop_runs()
        kept = audit if self.keep_audit else None
        for i in range(m):
            table[(level, i)] = select_fastest(level, i, outcomes[i], kept)

    # -- one candidate ----------------------------------------------------------

    def _evaluate_candidate(
        self, plan, level: int, acc_index: int, probe: Choice, best_time: float
    ) -> CandidateOutcome | None:
        """Train and time one candidate against a pruning budget.

        ``plan`` is :meth:`_plan_below` ``level``.  ``best_time`` is the
        fastest feasible candidate seen so far for this slot;
        ``math.inf`` disables pruning (``BOSearch``, which observes
        every trained iteration count).  Every slot of the level reads
        its iteration count off the candidate's one set of training runs.
        Returns ``None`` when its estimation phase alone costs at least
        ``best_time``.
        """
        if isinstance(probe, DirectChoice):
            # Direct: exact, always feasible.
            return self._outcome(plan, level, probe)
        j, solver = _phases(probe)
        est_cost = 0.0
        if j is not None:
            estimate = EstimateChoice(j, SORChoice(0))  # the estimation phase alone
            est_cost = self.timing.price(plan.choice_meter(level, estimate))
        recurse = isinstance(solver, RecurseChoice)
        hard_cap = self.max_recurse_iters if recurse else self.max_sor_iters
        unit_cost = self.timing.price(_solver_plan(plan).choice_meter(level, solver))
        cap = self._budget_cap(unit_cost, best_time, hard_cap, est_cost)
        if cap < 1:
            return None
        try:
            iters = self._trajectories(plan, level, probe).iterations(
                self.accuracies[acc_index], cap, self.aggregate
            )
        except InfeasibleCandidate:
            return CandidateOutcome(self._describe_infeasible(probe), math.inf, False, None)
        trained = replace(solver, iterations=iters)
        return self._outcome(plan, level, trained if j is None else EstimateChoice(j, trained))

    @staticmethod
    def _describe_infeasible(probe: Choice) -> str:
        """Audit description of a candidate that missed its target."""
        return probe.describe()

    @staticmethod
    def _budget_cap(unit_cost: float, best_time: float, hard_cap: int, est_cost=0.0) -> int:
        """Iterations beyond which a candidate whose estimation phase
        costs ``est_cost`` cannot beat ``best_time``; 0 when that phase
        alone costs at least ``best_time``."""
        remaining = best_time - est_cost
        if unit_cost <= 0.0 or math.isinf(remaining):
            return hard_cap
        if remaining <= 0.0:
            return 0
        return min(hard_cap, int(remaining / unit_cost) + 1)

    def _outcome(self, plan, level: int, choice: Choice) -> CandidateOutcome:
        """A trained candidate, priced from the plan's meter."""
        seconds = self.timing.time_candidate(plan.choice_meter(level, choice))
        return CandidateOutcome(choice.describe(), seconds, True, choice)

    # -- training runs -----------------------------------------------------------

    @staticmethod
    def _run_key(plan, level: int, probe: Choice):
        """(start key, step key) of a candidate: ``None`` for fresh
        starts or the full-MG ``call_key`` of its ESTIMATE_j, and the
        ``choice_key`` of its solver step.  Candidates with equal keys
        train the same steps from the same states."""
        j, solver = _phases(probe)
        start = None if j is None else plan.call_key(level - 1, j)
        return start, _solver_plan(plan).choice_key(level, solver)

    def _trajectories(self, plan, level: int, probe: Choice) -> Trajectories:
        """The training runs of ``probe`` on ``plan``, shared by every
        slot of ``level`` and by every candidate with the same
        :meth:`_run_key` (and by every ``BOSearch`` task of the level a
        worker gets); a different plan means the level moved on, and the
        runs go."""
        if plan != self._trained_on:
            self._drop_runs()
            self._trained_on = plan
        key = self._run_key(plan, level, probe)
        runs = self._trained.get(key)
        if runs is None:
            j, solver = _phases(probe)
            bundle = self.training.at_level(level)
            states = self._starts.get(key[0])
            if states is None:
                states = self._starts[key[0]] = bundle.fresh_starts()
                if j is not None:
                    for x, b in states:
                        self._executor._estimate(plan, x, b, level, j)
            vplan = _solver_plan(plan)
            if isinstance(solver, RecurseChoice):
                step = recurse_step(self._executor, vplan, level, solver.sub_accuracy)
            else:
                step = sor_step(self._executor, vplan, level)
            starts = [(x.copy(), b) for x, b in states]
            runs = self._trained[key] = Trajectories(step, starts, bundle.accuracy_fns())
        return runs

    def _drop_runs(self) -> None:
        """Release the training runs (and their start states) of the
        level trained last."""
        self._trained_on: Any = None
        self._trained: dict[Any, Trajectories] = {}
        self._starts: dict[Any, list[tuple[np.ndarray, np.ndarray]]] = {}


def _phases(probe: Choice) -> tuple[int | None, Choice]:
    """A candidate's ESTIMATE_j accuracy (``None`` if it has none) and
    solver step."""
    if isinstance(probe, EstimateChoice):
        return probe.estimate_accuracy, probe.solver
    return None, probe


def _solver_plan(plan: TunedVPlan | TunedFullMGPlan) -> TunedVPlan:
    """The V plan a candidate's solver step runs on."""
    return plan.vplan if isinstance(plan, TunedFullMGPlan) else plan


@dataclass
class VCycleTuner(SlotTuner):
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
        self._setup()
        from repro.kernels import resolve_backend

        self.backend = resolve_backend(self.backend)
        # Lazy per-level backend placement (worker pools reuse one tuner
        # across levels beyond its construction-time max_level).
        self._level_backends: dict[int, str] = {}

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
        table, metadata = self._walk(self.max_level, "multigrid-v", self.backend)
        plan = TunedVPlan(
            accuracies=self.accuracies,
            max_level=self.max_level,
            table=table,
            metadata=metadata,
            ndim=self._ndim,
            backends=self._backends_through(self.max_level),
        )
        return emit_trial(self.sink, plan, self.timing, self.training, start)

    # -- the V family -------------------------------------------------------

    def _plan_below(self, table: dict[tuple[int, int], Choice], level: int) -> TunedVPlan:
        """As :meth:`SlotTuner._plan_below`, with backends placed
        through ``level``."""
        return TunedVPlan(
            self.accuracies,
            level - 1,
            dict(table),
            ndim=self._ndim,
            backends=self._backends_through(level),
        )

    def _candidates(self) -> list[Choice]:
        """Direct first, then RECURSE_j highest sub-accuracy first (fewest
        outer iterations, so later candidates get a tight pruning budget
        early), then standalone SOR."""
        recurse = [RecurseChoice(j, 1) for j in range(len(self.accuracies) - 1, -1, -1)]
        return [DirectChoice(), *recurse, SORChoice(1)]

    def _outcome(self, plan: TunedVPlan, level: int, choice: Choice) -> CandidateOutcome:
        """Priced from the plan's meter, or timed end to end when the
        timing measures wall-clock."""
        if isinstance(self.timing, CostModelTiming):
            return super()._outcome(plan, level, choice)
        starts = self.training.at_level(level).fresh_starts()
        meter = plan.choice_meter(level, choice)
        seconds = self.timing.time_candidate(meter, self._v_run(plan, level, choice), starts)
        return CandidateOutcome(choice.describe(), seconds, True, choice)

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
