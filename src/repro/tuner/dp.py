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
moving up — the paper's key departure from single-accuracy tuning.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.accuracy.estimator import (
    Aggregate,
    InfeasibleCandidate,
    iterations_to_accuracy,
)
from repro.linalg.direct import DirectSolver
from repro.machines.meter import NULL_METER, OpMeter, backend_op, dim_op
from repro.tuner.choices import Choice, DirectChoice, RecurseChoice, SORChoice
from repro.tuner.executor import PlanExecutor
from repro.tuner.plan import DEFAULT_ACCURACIES, TunedVPlan, recurse_wrapper_meter
from repro.tuner.timing import CostModelTiming, TimingStrategy
from repro.tuner.trace import NULL_TRACE
from repro.tuner.training import TrainingData
from repro.util.validation import size_of_level

__all__ = [
    "CandidateOutcome",
    "CandidateReport",
    "VCycleTuner",
    "operator_sor_step",
    "plan_level_backends",
    "select_fastest",
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


def level_backend(
    backend: str,
    level: int,
    ndim: int,
    operator,
    timing: TimingStrategy | None,
) -> str:
    """The kernel backend placed at one plan level.

    Pure function of its arguments, so the serial DP and the parallel
    worker pool (which rebuilds tuners from task data) place backends
    identically.  A level gets the accelerated backend when pricing the
    RECURSE wrapper ops there is no more expensive than the reference —
    with :class:`CostModelTiming` that naturally keeps tiny coarse grids
    on NumPy (dispatch overhead dominates) while fine grids accelerate;
    without a cost model (wall-clock tuning) every supported level
    accelerates.  Backends never change numerics, so this is purely a
    pricing decision — iteration training is backend-independent.
    """
    if backend in ("", "numpy") or level < 2:
        return "numpy"
    from repro.kernels import get_backend
    from repro.operators.spec import shared_operator

    probe = shared_operator(operator, size_of_level(2))
    if not get_backend(backend).supports(probe):
        return "numpy"
    if timing is None:
        return backend
    n = size_of_level(level)
    reference = _wrapper_price(timing, n, ndim, "numpy")
    accelerated = _wrapper_price(timing, n, ndim, backend)
    return backend if accelerated <= reference else "numpy"


def plan_level_backends(
    backend: str,
    max_level: int,
    ndim: int,
    operator,
    timing: TimingStrategy | None,
) -> dict[int, str]:
    """Per-level backend placement for a whole plan (non-numpy levels only)."""
    levels: dict[int, str] = {}
    for level in range(2, max_level + 1):
        placed = level_backend(backend, level, ndim, operator, timing)
        if placed != "numpy":
            levels[level] = placed
    return levels


def _wrapper_price(timing: TimingStrategy, n: int, ndim: int, backend: str) -> float:
    meter = recurse_wrapper_meter(n, ndim, backend)
    return sum(
        count * timing.op_seconds(op, size) for (op, size), count in meter.items()
    )


def operator_sor_step(training: TrainingData, n: int):
    """Standalone-SOR candidate step for the training operator at size ``n``."""
    from repro.operators.spec import shared_operator

    op = shared_operator(training.operator, n)
    w = op.omega_opt()

    def step(x: np.ndarray, b: np.ndarray) -> None:
        op.sor_sweeps(x, b, w, 1)

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


class _TableView:
    """Duck-typed plan over a partially built table, for the executor."""

    __slots__ = ("table", "max_level", "backends")

    def __init__(
        self,
        table: dict[tuple[int, int], Choice],
        max_level: int,
        backends: dict[int, str] | None = None,
    ) -> None:
        self.table = table
        self.max_level = max_level
        self.backends = backends or {}

    def choice(self, level: int, acc_index: int) -> Choice:
        return self.table[(level, acc_index)]

    def backend_at(self, level: int) -> str:
        return self.backends.get(level, "numpy")


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
    direct: DirectSolver | None = None
    candidate_filter: CandidateFilter | None = None
    keep_audit: bool = True
    #: optional :class:`repro.store.sink.TrialSink`; each ``tune()`` call
    #: reports one trial record to it (duck-typed so the tuner layer does
    #: not import the store at module scope)
    sink: Any | None = None
    #: optional :class:`repro.parallel.TrialExecutor`.  ``None`` or a
    #: serial executor keeps the classic in-process DP (bit-identical);
    #: a parallel executor fans each level's candidate evaluations
    #: across worker processes and — because tasks are deterministically
    #: seeded pure data — selects exactly the same plan (duck-typed so
    #: the tuner layer does not import :mod:`repro.parallel` at module
    #: scope)
    trial_executor: Any | None = None
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
        self.direct = self.direct or DirectSolver(backend="block", cache_factorization=True)
        self._executor = PlanExecutor(direct=self.direct, operator=self.training.operator)
        #: grid dimensionality of the training operator (op vocabulary)
        self._ndim = self.training.ndim
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

    def _allowed(self, level: int, acc_index: int, choice: Choice) -> bool:
        if self.candidate_filter is None:
            return True
        return self.candidate_filter(level, acc_index, choice)

    def _tune_level(
        self,
        level: int,
        table: dict[tuple[int, int], Choice],
        audit: list[CandidateReport],
    ) -> None:
        if _parallel(self.trial_executor):
            from repro.parallel.tasks import tune_v_level_parallel

            tune_v_level_parallel(self, level, table, audit)
            return
        n = size_of_level(level)
        bundle = self.training.at_level(level)
        view = _TableView(table, level, self._backends_through(level))
        m = len(self.accuracies)
        sub_meters = [self._meter_below(table, level, j) for j in range(m)]
        kept = audit if self.keep_audit else None
        for i, target in enumerate(self.accuracies):
            outcomes = self._evaluate_slot(level, i, target, n, bundle, view, sub_meters)
            table[(level, i)] = select_fastest(level, i, outcomes, kept)

    def _meter_below(
        self, table: dict[tuple[int, int], Choice], level: int, acc_index: int
    ) -> OpMeter:
        """Exact unit meter of the already-tuned plan entry (level-1, j)."""
        meter = OpMeter()
        choice = table[(level - 1, acc_index)]
        n = size_of_level(level - 1)
        backend = self._backend_at(level - 1)
        if isinstance(choice, DirectChoice):
            meter.charge(dim_op("direct", self._ndim), n)
        elif isinstance(choice, SORChoice):
            meter.charge(
                backend_op(dim_op("relax", self._ndim), backend), n, choice.iterations
            )
        elif isinstance(choice, RecurseChoice):
            wrapper = recurse_wrapper_meter(n, self._ndim, backend)
            wrapper.merge(self._meter_below(table, level - 1, choice.sub_accuracy))
            meter.merge(wrapper, times=choice.iterations)
        return meter

    def _candidate_order(self) -> list[tuple[str, int | None]]:
        """Candidate enumeration order for one slot.

        Direct first, then RECURSE_j highest sub-accuracy first (fewest
        outer iterations, so later candidates get a tight pruning budget
        early), then standalone SOR.  Serial pruning and parallel
        selection both follow this order, which is what makes the two
        paths choose identical plans.
        """
        m = len(self.accuracies)
        order: list[tuple[str, int | None]] = [("direct", None)]
        order.extend(("recurse", j) for j in range(m - 1, -1, -1))
        order.append(("sor", None))
        return order

    def _evaluate_slot(
        self,
        level: int,
        acc_index: int,
        target: float,
        n: int,
        bundle,
        view: _TableView,
        sub_meters: Sequence[OpMeter],
    ) -> list[CandidateOutcome]:
        """Every unfiltered candidate of one slot, in enumeration order,
        each pruned against the fastest feasible one before it."""
        outcomes: list[CandidateOutcome] = []
        best_time = math.inf
        for kind, j in self._candidate_order():
            outcome = self._evaluate_candidate(
                level, acc_index, target, n, bundle, view, sub_meters, kind, j, best_time
            )
            if outcome is None:
                continue
            outcomes.append(outcome)
            if outcome.feasible:
                best_time = min(best_time, outcome.seconds)
        return outcomes

    def _evaluate_candidate(
        self,
        level: int,
        acc_index: int,
        target: float,
        n: int,
        bundle,
        view: _TableView,
        sub_meters: Sequence[OpMeter],
        kind: str,
        j: int | None,
        best_time: float,
    ) -> CandidateOutcome | None:
        """Train and time one candidate against a pruning budget.

        ``best_time`` is the fastest feasible candidate seen so far for
        this slot; ``math.inf`` disables pruning (the parallel path,
        where candidates are evaluated independently — any candidate
        serial pruning would have rejected prices strictly worse than
        the serial winner, so selection is unaffected).  Returns
        ``None`` when the candidate_filter removes the candidate.
        """
        if kind == "direct":
            # Direct: exact, always feasible.
            if not self._allowed(level, acc_index, DirectChoice()):
                return None
            meter = OpMeter()
            meter.charge(dim_op("direct", self._ndim), n)
            seconds = self.timing.time_candidate(
                meter, self._direct_run(n), bundle.fresh_starts()
            )
            return CandidateOutcome(
                _describe(DirectChoice()), seconds, True, DirectChoice()
            )

        if kind == "recurse":
            assert j is not None
            probe = RecurseChoice(sub_accuracy=j, iterations=1)
            if not self._allowed(level, acc_index, probe):
                return None
            unit = OpMeter()
            unit.merge(recurse_wrapper_meter(n, self._ndim, self._backend_at(level)))
            unit.merge(sub_meters[j])
            unit_cost = self._price_unit(unit)
            cap = self._budget_cap(unit_cost, best_time, self.max_recurse_iters)
            if cap < 1:
                return CandidateOutcome(
                    _describe(probe) + " [pruned]", math.inf, False, None
                )
            step = self._recurse_step(view, level, j)
            try:
                iters = iterations_to_accuracy(
                    step,
                    bundle.fresh_starts(),
                    bundle.accuracy_fns(),
                    target,
                    max_iters=cap,
                    aggregate=self.aggregate,
                )
            except InfeasibleCandidate:
                return CandidateOutcome(_describe(probe), math.inf, False, None)
            iters = max(iters, 1)
            choice = RecurseChoice(sub_accuracy=j, iterations=iters)
            seconds = self.timing.time_candidate(
                unit.scaled(iters), self._v_run(view, level, choice),
                bundle.fresh_starts(),
            )
            return CandidateOutcome(_describe(choice), seconds, True, choice)

        if kind == "sor":
            probe_sor = SORChoice(iterations=1)
            if not self._allowed(level, acc_index, probe_sor):
                return None
            relax_op = backend_op(dim_op("relax", self._ndim), self._backend_at(level))
            relax_cost = self.timing.op_seconds(relax_op, n)
            cap = self._budget_cap(relax_cost, best_time, self.max_sor_iters)
            if cap < 1:
                return CandidateOutcome(
                    _describe(probe_sor) + " [pruned]", math.inf, False, None
                )
            try:
                iters = iterations_to_accuracy(
                    self._sor_step(n),
                    bundle.fresh_starts(),
                    bundle.accuracy_fns(),
                    target,
                    max_iters=cap,
                    aggregate=self.aggregate,
                )
            except InfeasibleCandidate:
                return CandidateOutcome(_describe(probe_sor), math.inf, False, None)
            iters = max(iters, 1)
            choice = SORChoice(iterations=iters)
            meter = OpMeter()
            meter.charge(relax_op, n, iters)
            seconds = self.timing.time_candidate(
                meter, self._v_run(view, level, choice), bundle.fresh_starts()
            )
            return CandidateOutcome(_describe(choice), seconds, True, choice)

        raise ValueError(f"unknown candidate kind {kind!r}")

    # -- candidate step/run closures ---------------------------------------

    def _price_unit(self, unit: OpMeter) -> float:
        return sum(
            count * self.timing.op_seconds(op, size)
            for (op, size), count in unit.items()
        )

    @staticmethod
    def _budget_cap(unit_cost: float, best_time: float, hard_cap: int) -> int:
        """Iterations beyond which a candidate cannot beat ``best_time``."""
        if unit_cost <= 0.0 or math.isinf(best_time):
            return hard_cap
        return min(hard_cap, int(best_time / unit_cost) + 1)

    def _direct_run(self, n: int):
        from repro.operators.spec import shared_operator

        direct = self.direct
        op = shared_operator(self.training.operator, n)

        def run(x: np.ndarray, b: np.ndarray) -> None:
            op.direct_solve(x, b, solver=direct)

        return run

    def _sor_step(self, n: int):
        return operator_sor_step(self.training, n)

    def _recurse_step(self, view: _TableView, level: int, sub_accuracy: int):
        executor = self._executor

        def step(x: np.ndarray, b: np.ndarray) -> None:
            executor._recurse_once(view, x, b, level, sub_accuracy, NULL_METER, NULL_TRACE)

        return step

    def _v_run(self, view: _TableView, level: int, choice: Choice):
        """End-to-end run of a hypothetical slot choice (wallclock timing)."""
        executor = self._executor
        table = dict(view.table)
        table[(level, -1)] = choice
        probe_view = _TableView(table, level, view.backends)

        def run(x: np.ndarray, b: np.ndarray) -> None:
            executor._run_v(probe_view, x, b, level, -1, NULL_METER, NULL_TRACE)

        return run


def _describe(choice: Choice) -> str:
    return choice.describe()


def _parallel(executor: Any) -> bool:
    """True when the executor should trigger the fan-out tuning path."""
    return executor is not None and getattr(executor, "jobs", 1) > 1
