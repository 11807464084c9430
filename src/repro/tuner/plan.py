"""Tuned plans: the output of the autotuner.

A plan is the paper's "family of functions MULTIGRID-V_i" (and
FULL-MULTIGRID_i): for every level k and accuracy index i it stores the
choice the DP selected.  Plans are:

* executable (:mod:`repro.tuner.executor`),
* exactly priceable — execution is open-loop with trained iteration
  counts, so the multiset of primitive ops is known analytically
  (:meth:`TunedVPlan.unit_meter`),
* traceable without running — the order of those ops is fixed too
  (:meth:`TunedVPlan.trace`; Figures 5, 9 and 14 read it), and
* serializable (:mod:`repro.tuner.config`), playing the role of the
  PetaBricks configuration file.

The tuners build level k on the plan tuned through level k-1: they
price each candidate with its :meth:`~TunedVPlan.choice_meter` and train
and run it on that plan through the executor, so this module is the one
place that knows a choice's op multiset and op order; the executor only
computes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.machines.meter import OpMeter, backend_op, dim_op
from repro.machines.profile import MachineProfile
from repro.tuner.choices import (
    Choice,
    DirectChoice,
    EstimateChoice,
    RecurseChoice,
    SORChoice,
)
from repro.tuner.trace import TraceEvent
from repro.util.validation import size_of_level

if TYPE_CHECKING:
    from repro.tuner.timing import TimingStrategy

__all__ = [
    "FIXED_LADDER",
    "TunedFullMGPlan",
    "TunedVPlan",
    "fixed_vplan",
    "level_backend",
    "recurse_wrapper_meter",
]

DEFAULT_ACCURACIES: tuple[float, ...] = (1e1, 1e3, 1e5, 1e7, 1e9)

#: Accuracy ladder of a fixed (untuned) plan: one rung that nothing
#: consults.  Fixed plans — the paper's reference cycles, the Pareto
#: ablation's chains — hold one choice per level and are either iterated
#: until a *measured* accuracy is met or run a fixed number of times.
FIXED_LADDER: tuple[float, ...] = (10.0,)


def recurse_wrapper_meter(n: int, ndim: int = 2, backend: str = "numpy") -> OpMeter:
    """Ops of one RECURSE application at fine size ``n``, excluding the
    coarse-grid call: two SOR(1.15) sweeps, residual, restriction,
    interpolation+correction.  ``ndim`` picks the 2-D or 3-D op
    vocabulary; ``backend`` qualifies the ops with the kernel backend
    executing this level (the default leaves them bare)."""
    meter = OpMeter()
    meter.charge(backend_op(dim_op("relax", ndim), backend), n, 2)
    meter.charge(backend_op(dim_op("residual", ndim), backend), n)
    meter.charge(backend_op(dim_op("restrict", ndim), backend), n)
    meter.charge(backend_op(dim_op("interpolate", ndim), backend), n)
    return meter


def level_backend(
    backend: str,
    level: int,
    ndim: int,
    operator,
    timing: TimingStrategy | None,
) -> str:
    """The kernel backend a tuned plan places at one level.

    Pure function of its arguments, so the serial DP and the parallel
    worker pool (which rebuilds tuners from task data) place backends
    identically.  A level gets the accelerated backend when pricing the
    RECURSE wrapper ops there is no more expensive than the reference —
    with :class:`~repro.tuner.timing.CostModelTiming` that naturally
    keeps tiny coarse grids on NumPy (dispatch overhead dominates) while
    fine grids accelerate; without a cost model (wall-clock tuning)
    every supported level accelerates.  Backends never change numerics,
    so under a cost model this is purely a pricing decision: the meters
    charge the placed backend, while iteration training runs on the
    fastest available one whatever is placed
    (:class:`~repro.tuner.executor.TrainingExecutor`).  Only wall-clock
    tuning, whose measured seconds are the price, runs the placement.
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
    reference = timing.price(recurse_wrapper_meter(n, ndim, "numpy"))
    accelerated = timing.price(recurse_wrapper_meter(n, ndim, backend))
    return backend if accelerated <= reference else "numpy"


def _check_table(
    table: Mapping[tuple[int, int], Choice],
    accuracies: tuple[float, ...],
    max_level: int,
    allow_estimate: bool,
) -> None:
    m = len(accuracies)
    if m < 1:
        raise ValueError("need at least one accuracy level")
    if any(a <= 1.0 for a in accuracies):
        raise ValueError("accuracy levels are reduction ratios and must be > 1")
    if list(accuracies) != sorted(accuracies):
        raise ValueError("accuracies must be sorted ascending")
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    for level in range(1, max_level + 1):
        for i in range(m):
            choice = table.get((level, i))
            if choice is None:
                raise ValueError(f"missing choice for (level={level}, acc={i})")
            if isinstance(choice, EstimateChoice) and not allow_estimate:
                raise ValueError("EstimateChoice is only valid in full-MG plans")
            if isinstance(choice, (SORChoice, RecurseChoice)) and choice.iterations < 1:
                raise ValueError(
                    f"plan slot (level={level}, acc={i}) needs >= 1 iteration"
                )
            if isinstance(choice, (RecurseChoice, EstimateChoice)) and level == 1:
                raise ValueError("level 1 (3x3) cannot recurse")
            sub = None
            if isinstance(choice, RecurseChoice):
                sub = choice.sub_accuracy
            elif isinstance(choice, EstimateChoice):
                sub = choice.estimate_accuracy
                if isinstance(choice.solver, RecurseChoice):
                    if not 0 <= choice.solver.sub_accuracy < m:
                        raise ValueError("estimate solver sub_accuracy out of range")
            if sub is not None and not 0 <= sub < m:
                raise ValueError(f"sub accuracy index {sub} out of range [0, {m})")


@dataclass
class TunedVPlan:
    """Tuned MULTIGRID-V_i family over levels 1..max_level.

    ``ndim`` is the grid dimensionality the plan was tuned for; it
    selects the op vocabulary (and therefore pricing) of
    :meth:`unit_meter` and the kernels the executor dispatches into.
    """

    accuracies: tuple[float, ...]
    max_level: int
    table: dict[tuple[int, int], Choice]
    metadata: dict = field(default_factory=dict)
    ndim: int = 2
    #: per-level kernel backend; only non-default levels are stored, so a
    #: plan with no accelerated levels compares (and serializes) exactly
    #: as before the backend dimension existed
    backends: dict[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.accuracies = tuple(float(a) for a in self.accuracies)
        if self.ndim not in (2, 3):
            raise ValueError(f"ndim must be 2 or 3, got {self.ndim}")
        _check_table(self.table, self.accuracies, self.max_level, allow_estimate=False)
        self.backends = {
            int(level): str(name)
            for level, name in (self.backends or {}).items()
            if name != "numpy"
        }
        self._meters: dict[tuple[int, int], OpMeter] = {}

    # -- lookups ----------------------------------------------------------

    @property
    def num_accuracies(self) -> int:
        return len(self.accuracies)

    def accuracy_index(self, target: float) -> int:
        """Smallest ladder index whose accuracy is >= target."""
        for i, p in enumerate(self.accuracies):
            if p >= target - 1e-12:
                return i
        raise ValueError(
            f"target accuracy {target:g} above the ladder {self.accuracies}"
        )

    def choice(self, level: int, acc_index: int) -> Choice:
        return self.table[(level, acc_index)]

    def backend_at(self, level: int) -> str:
        """The kernel backend executing stencil ops at ``level``."""
        return self.backends.get(level, "numpy")

    def call_key(self, level: int, acc_index: int):
        """The choice tree of one MULTIGRID-V_{acc_index} call at ``level``.

        ``direct`` and ``sor(xN)`` are their own keys; ``recurse(j, xN)``
        is ``(N, call_key(level - 1, j))``.  Two slots with equal keys run
        the same kernels in the same order, so the tuners train a step
        over either once.
        """
        return self.choice_key(level, self.table[(level, acc_index)])

    def choice_key(self, level: int, choice: Choice):
        """:meth:`call_key` of ``choice`` applied once at ``level``."""
        if isinstance(choice, RecurseChoice):
            return (choice.iterations, self.call_key(level - 1, choice.sub_accuracy))
        if isinstance(choice, (DirectChoice, SORChoice)):
            return choice
        raise TypeError(f"invalid V-plan choice {choice!r}")

    # -- pricing ----------------------------------------------------------

    def unit_meter(self, level: int, acc_index: int) -> OpMeter:
        """Exact op multiset of one MULTIGRID-V_{acc_index} call at ``level``."""
        key = (level, acc_index)
        meter = self._meters.get(key)
        if meter is None:
            meter = self._meters[key] = self.choice_meter(level, self.table[key])
        return meter

    def choice_meter(self, level: int, choice: Choice) -> OpMeter:
        """Exact op multiset of one application of ``choice`` at ``level``.

        The choice need not be in the table: coarse-grid calls price
        this plan's levels below, so a plan tuned through ``level - 1``
        prices every candidate the tuners weigh for ``level``.
        """
        n = size_of_level(level)
        backend = self.backend_at(level)
        meter = OpMeter()
        if isinstance(choice, DirectChoice):
            meter.charge(dim_op("direct", self.ndim), n)
        elif isinstance(choice, SORChoice):
            meter.charge(
                backend_op(dim_op("relax", self.ndim), backend), n, choice.iterations
            )
        elif isinstance(choice, RecurseChoice):
            wrapper = recurse_wrapper_meter(n, self.ndim, backend)
            wrapper.merge(self.unit_meter(level - 1, choice.sub_accuracy))
            meter.merge(wrapper, times=choice.iterations)
        else:
            raise TypeError(f"invalid V-plan choice {choice!r}")
        return meter

    def time_on(self, profile: MachineProfile, level: int, acc_index: int) -> float:
        """Simulated seconds of one call under ``profile``."""
        return profile.price(self.unit_meter(level, acc_index))

    # -- tracing ----------------------------------------------------------

    def trace(self, level: int, acc_index: int) -> tuple[TraceEvent, ...]:
        """Event sequence of one MULTIGRID-V_{acc_index} call at ``level``,
        in the order the executor runs its ops."""
        events: list[TraceEvent] = []
        self._trace_into(events, level, acc_index)
        return tuple(events)

    def _trace_into(self, events: list[TraceEvent], level: int, acc_index: int) -> None:
        events.append(TraceEvent("enter", level, acc_index))
        self._choice_trace_into(events, level, self.table[(level, acc_index)])
        events.append(TraceEvent("exit", level))

    def _choice_trace_into(
        self, events: list[TraceEvent], level: int, choice: Choice
    ) -> None:
        """Events of one application of ``choice`` (the body of an
        enter/exit pair); RECURSE is relax, coarse call, relax."""
        if isinstance(choice, DirectChoice):
            events.append(TraceEvent("direct", level))
        elif isinstance(choice, SORChoice):
            events.append(TraceEvent("sor", level, choice.iterations))
        elif isinstance(choice, RecurseChoice):
            for _ in range(choice.iterations):
                events += (TraceEvent("relax", level), TraceEvent("descend", level))
                self._trace_into(events, level - 1, choice.sub_accuracy)
                events += (TraceEvent("ascend", level), TraceEvent("relax", level))
        else:
            raise TypeError(f"invalid V-plan choice {choice!r}")

    def invalidate_pricing_cache(self) -> None:
        self._meters.clear()


def fixed_vplan(choices: Sequence[Choice], ndim: int = 2) -> "TunedVPlan":
    """A one-rung V plan that runs ``choices[k - 1]`` at level k."""
    table = {(level, 0): choice for level, choice in enumerate(choices, start=1)}
    return TunedVPlan(FIXED_LADDER, len(choices), table, ndim=ndim)


@dataclass
class TunedFullMGPlan:
    """Tuned FULL-MULTIGRID_i family; solve-phase recursion uses ``vplan``."""

    accuracies: tuple[float, ...]
    max_level: int
    table: dict[tuple[int, int], Choice]
    vplan: TunedVPlan
    metadata: dict = field(default_factory=dict)
    ndim: int = 2

    def __post_init__(self) -> None:
        self.accuracies = tuple(float(a) for a in self.accuracies)
        if self.ndim not in (2, 3):
            raise ValueError(f"ndim must be 2 or 3, got {self.ndim}")
        _check_table(self.table, self.accuracies, self.max_level, allow_estimate=True)
        if self.vplan.accuracies != self.accuracies:
            raise ValueError("full-MG plan and V plan must share the accuracy ladder")
        if self.vplan.max_level < self.max_level:
            raise ValueError("V plan must cover at least the full-MG plan's levels")
        if self.vplan.ndim != self.ndim:
            raise ValueError("full-MG plan and V plan must share ndim")
        self._meters: dict[tuple[int, int], OpMeter] = {}

    @property
    def num_accuracies(self) -> int:
        return len(self.accuracies)

    def accuracy_index(self, target: float) -> int:
        return self.vplan.accuracy_index(target)

    def choice(self, level: int, acc_index: int) -> Choice:
        return self.table[(level, acc_index)]

    @property
    def backends(self) -> dict[int, str]:
        """Per-level kernel backends (shared with the solve-phase V plan)."""
        return self.vplan.backends

    def backend_at(self, level: int) -> str:
        return self.vplan.backend_at(level)

    def call_key(self, level: int, acc_index: int):
        """The choice tree of one FULL-MULTIGRID_{acc_index} call at
        ``level``, as :meth:`TunedVPlan.call_key`: ``direct`` is its own
        key, and ``estimate(j) -> solver`` is this plan's key of j one
        level down paired with the V plan's key of the solver."""
        choice = self.table[(level, acc_index)]
        if isinstance(choice, DirectChoice):
            return choice
        if not isinstance(choice, EstimateChoice):
            raise TypeError(f"invalid full-MG choice {choice!r}")
        return (
            self.call_key(level - 1, choice.estimate_accuracy),
            self.vplan.choice_key(level, choice.solver),
        )

    def unit_meter(self, level: int, acc_index: int) -> OpMeter:
        """Exact op multiset of one FULL-MULTIGRID_{acc_index} call."""
        key = (level, acc_index)
        meter = self._meters.get(key)
        if meter is None:
            meter = self._meters[key] = self.choice_meter(level, self.table[key])
        return meter

    def choice_meter(self, level: int, choice: Choice) -> OpMeter:
        """Exact op multiset of one application of ``choice`` at ``level``.

        As :meth:`TunedVPlan.choice_meter`: ESTIMATE_j prices this plan's
        FULL-MULTIGRID_j one level down, and the solve phase is the V
        plan's meter of the solver choice.  ``EstimateChoice(j,
        SORChoice(0))`` is the estimation phase alone.
        """
        if isinstance(choice, DirectChoice):
            return self.vplan.choice_meter(level, choice)
        if not isinstance(choice, EstimateChoice):
            raise TypeError(f"invalid full-MG choice {choice!r}")
        n = size_of_level(level)
        backend = self.backend_at(level)
        # Estimation phase: residual, restrict, recursive full-MG call,
        # interpolate + correct.
        meter = OpMeter()
        meter.charge(backend_op(dim_op("residual", self.ndim), backend), n)
        meter.charge(backend_op(dim_op("restrict", self.ndim), backend), n)
        meter.merge(self.unit_meter(level - 1, choice.estimate_accuracy))
        meter.charge(backend_op(dim_op("interpolate", self.ndim), backend), n)
        meter.merge(self.vplan.choice_meter(level, choice.solver))
        return meter

    def time_on(self, profile: MachineProfile, level: int, acc_index: int) -> float:
        return profile.price(self.unit_meter(level, acc_index))

    def trace(self, level: int, acc_index: int) -> tuple[TraceEvent, ...]:
        """Event sequence of one FULL-MULTIGRID_{acc_index} call at ``level``."""
        events: list[TraceEvent] = []
        self._trace_into(events, level, acc_index)
        return tuple(events)

    def _trace_into(self, events: list[TraceEvent], level: int, acc_index: int) -> None:
        """As :meth:`choice_meter`: ESTIMATE_j traces this plan one level
        down, and the solve phase is the V plan's trace of the solver."""
        choice = self.table[(level, acc_index)]
        events.append(TraceEvent("enter", level, acc_index))
        if isinstance(choice, EstimateChoice):
            j = choice.estimate_accuracy
            events += (TraceEvent("estimate", level, j), TraceEvent("descend", level))
            self._trace_into(events, level - 1, j)
            events.append(TraceEvent("ascend", level))
            choice = choice.solver
        elif not isinstance(choice, DirectChoice):
            raise TypeError(f"invalid full-MG choice {choice!r}")
        self.vplan._choice_trace_into(events, level, choice)
        events.append(TraceEvent("exit", level))

    def invalidate_pricing_cache(self) -> None:
        self._meters.clear()
        self.vplan.invalidate_pricing_cache()
