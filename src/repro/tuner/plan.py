"""Tuned plans: the output of the autotuner.

A plan is the paper's "family of functions MULTIGRID-V_i" (and
FULL-MULTIGRID_i): for every level k and accuracy index i it stores the
choice the DP selected.  Execution is open-loop with trained iteration
counts, so what one call does follows from the table alone: each slot
compiles once into a *program*, the flat tuple of
:class:`~repro.tuner.trace.TraceEvent` steps the call runs
(:meth:`TunedVPlan.program`), cached on the plan.  The program is the
one source for every reader:

* the executor (:mod:`repro.tuner.executor`) runs it, one loop over its
  steps;
* :meth:`~TunedVPlan.unit_meter` and :meth:`~TunedVPlan.choice_meter`
  count its op steps, the exact op multiset the tuners price;
* :meth:`~TunedVPlan.trace` returns it (Figures 4, 5 and 14 read it);
* :meth:`~TunedVPlan.call_key` is its op steps alone: untraced calls
  and training steps run it, and the tuners train two slots that
  compute alike once.

The tuners build level k on the plan tuned through level k-1: a
candidate compiles there too (:meth:`~TunedVPlan.choice_program`) and is
priced, keyed and run the same way.  Plans serialize through
:mod:`repro.tuner.config`, playing the role of the PetaBricks
configuration file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
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
from repro.tuner.trace import OP_STEPS, TraceEvent
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


@lru_cache(maxsize=None)
def _stencil_ops(ndim: int, backend: str) -> tuple[str, str, str, str]:
    """Meter names of relax, residual, restrict and interpolate."""
    ops = ("relax", "residual", "restrict", "interpolate")
    return tuple(backend_op(dim_op(op, ndim), backend) for op in ops)


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


#: Interned program steps: a compile reuses one event per (kind, level,
#: detail) instead of building it again.
_step = lru_cache(maxsize=None)(TraceEvent)


class _StepKey(tuple):
    """A training key: op steps that hash once.  A plain tuple rehashes
    every step on every lookup, and a tune looks a key up once per
    candidate."""

    def __new__(cls, steps):
        key = super().__new__(cls, steps)
        key._hash = tuple.__hash__(key)
        return key

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # string hashes differ between processes
        return type(self), (tuple(self),)


class _CompiledPlan:
    """What both plan families share: the program of each slot, cached,
    and its readers.  A family supplies the table, ``vplan`` (the plan
    its solver steps run on), :meth:`backend_at` and ``_compile``, the
    steps of one choice."""

    accuracies: tuple[float, ...]
    table: dict[tuple[int, int], Choice]
    ndim: int

    def _clear_programs(self) -> None:
        self._programs: dict[tuple[int, int], tuple[TraceEvent, ...]] = {}
        self._bodies: dict[tuple[int, Choice], tuple[TraceEvent, ...]] = {}
        self._keys: dict[tuple[int, Choice], _StepKey] = {}
        self._meters: dict[tuple[int, Choice], OpMeter] = {}

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
        raise NotImplementedError

    def choice_program(self, level: int, choice: Choice) -> tuple[TraceEvent, ...]:
        """Steps of one application of ``choice`` at ``level``: the body
        of an enter/exit pair, compiled once per (level, choice).  The
        choice need not be in the table; its coarse-grid calls run this
        plan's slots below ``level``."""
        body = self._bodies.get((level, choice))
        if body is None:
            body = self._bodies[(level, choice)] = self._compile(level, choice)
        return body

    def _compile(self, level: int, choice: Choice) -> tuple[TraceEvent, ...]:
        raise NotImplementedError

    # -- the program ------------------------------------------------------

    def program(self, level: int, acc_index: int) -> tuple[TraceEvent, ...]:
        """Steps of one call of slot (``level``, ``acc_index``), in the
        order the executor runs them; compiled once per slot."""
        slot = (level, acc_index)
        program = self._programs.get(slot)
        if program is None:
            body = self.choice_program(level, self.table[slot])
            program = self._programs[slot] = (
                _step("enter", level, acc_index), *body, _step("exit", level)
            )
        return program

    def trace(self, level: int, acc_index: int) -> tuple[TraceEvent, ...]:
        """Event sequence of one call: its :meth:`program`."""
        return self.program(level, acc_index)

    def call_key(self, level: int, acc_index: int) -> _StepKey:
        """The op steps of one call of slot (``level``, ``acc_index``).
        Two slots with equal keys run the same kernels in the same
        order, so the tuners train a step over either once."""
        return self.choice_key(level, self.table[(level, acc_index)])

    def choice_key(self, level: int, choice: Choice) -> _StepKey:
        """:meth:`call_key` of ``choice`` applied once at ``level``;
        computed once per (level, choice)."""
        key = self._keys.get((level, choice))
        if key is None:
            body = self.choice_program(level, choice)
            key = self._keys[(level, choice)] = _StepKey(e for e in body if e.kind in OP_STEPS)
        return key

    # -- pricing ----------------------------------------------------------

    def unit_meter(self, level: int, acc_index: int) -> OpMeter:
        """Exact op multiset of one call of slot (``level``, ``acc_index``)."""
        return self.choice_meter(level, self.table[(level, acc_index)])

    def choice_meter(self, level: int, choice: Choice) -> OpMeter:
        """Exact op multiset of one application of ``choice`` at
        ``level``: its program's op steps, counted once per (level,
        choice).  The meter is shared: read it, never charge it."""
        meter = self._meters.get((level, choice))
        if meter is None:
            meter = self._meters[(level, choice)] = self._count(level, choice)
        return meter

    def _count(self, level: int, choice: Choice) -> OpMeter:
        """A nested call counts as its slot's meter.  Ops are keyed in
        the order every price sums them: a V-cycle's interpolation with
        its descent, an estimation phase's after its coarse call.  N
        RECURSE iterations count as N copies of one."""
        if isinstance(choice, RecurseChoice) and choice.iterations > 1:
            once = RecurseChoice(choice.sub_accuracy, 1)
            return self.choice_meter(level, once).scaled(choice.iterations)
        n = size_of_level(level)
        relax, residual, restrict, interpolate = _stencil_ops(self.ndim, self.backend_at(level))
        body = self.choice_program(level, choice)
        meter, vplan, callee, i = OpMeter(), self.vplan, self, 0
        while i < len(body):
            kind, sub_level, detail = body[i]
            i += 1
            if kind == "enter":  # a nested call: full MG after estimate, V after relax
                meter.merge(callee.unit_meter(sub_level, detail))
                i += len(callee.program(sub_level, detail)) - 1
            elif kind == "estimate":
                callee = self
            elif kind == "direct":
                meter.charge(dim_op("direct", self.ndim), n)
            elif kind in ("relax", "sor"):
                callee = vplan
                meter.charge(relax, n, detail if kind == "sor" else 1)
            elif kind == "descend":
                meter.charge(residual, n)
                meter.charge(restrict, n)
                if callee is vplan:
                    meter.charge(interpolate, n)
            elif kind == "ascend" and callee is not vplan:
                meter.charge(interpolate, n)
        return meter

    def time_on(self, profile: MachineProfile, level: int, acc_index: int) -> float:
        """Simulated seconds of one call under ``profile``."""
        return profile.price(self.unit_meter(level, acc_index))

    def invalidate_pricing_cache(self) -> None:
        self._clear_programs()


@dataclass
class TunedVPlan(_CompiledPlan):
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
        self._clear_programs()

    @property
    def vplan(self) -> "TunedVPlan":
        """The plan solver steps run on: itself (a full-MG plan's field)."""
        return self

    def backend_at(self, level: int) -> str:
        """The kernel backend executing stencil ops at ``level``."""
        return self.backends.get(level, "numpy")

    def _compile(self, level: int, choice: Choice) -> tuple[TraceEvent, ...]:
        """``direct``, ``sor`` (none for zero sweeps), or per RECURSE
        iteration: relax, descend, the coarse call, ascend, relax."""
        if isinstance(choice, DirectChoice):
            return (_step("direct", level),)
        if isinstance(choice, SORChoice):
            return (_step("sor", level, choice.iterations),) if choice.iterations else ()
        if isinstance(choice, RecurseChoice):
            relax = _step("relax", level)
            coarse = self.program(level - 1, choice.sub_accuracy)
            once = (relax, _step("descend", level), *coarse, _step("ascend", level), relax)
            return once * choice.iterations
        raise TypeError(f"invalid V-plan choice {choice!r}")


def fixed_vplan(choices: Sequence[Choice], ndim: int = 2) -> "TunedVPlan":
    """A one-rung V plan that runs ``choices[k - 1]`` at level k."""
    table = {(level, 0): choice for level, choice in enumerate(choices, start=1)}
    return TunedVPlan(FIXED_LADDER, len(choices), table, ndim=ndim)


@dataclass
class TunedFullMGPlan(_CompiledPlan):
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
        self._clear_programs()

    @property
    def backends(self) -> dict[int, str]:
        """Per-level kernel backends (shared with the solve-phase V plan)."""
        return self.vplan.backends

    def backend_at(self, level: int) -> str:
        return self.vplan.backend_at(level)

    def _compile(self, level: int, choice: Choice) -> tuple[TraceEvent, ...]:
        """``direct``, or ESTIMATE_j (estimate, descend, this plan's
        FULL-MULTIGRID_j one level down, ascend) followed by the V plan's
        program of the solver.  ``EstimateChoice(j, SORChoice(0))`` is
        the estimation phase alone."""
        if isinstance(choice, DirectChoice):
            return self.vplan.choice_program(level, choice)
        if not isinstance(choice, EstimateChoice):
            raise TypeError(f"invalid full-MG choice {choice!r}")
        j = choice.estimate_accuracy
        return (
            _step("estimate", level, j),
            _step("descend", level),
            *self.program(level - 1, j),
            _step("ascend", level),
            *self.vplan.choice_program(level, choice.solver),
        )

    def invalidate_pricing_cache(self) -> None:
        super().invalidate_pricing_cache()
        self.vplan.invalidate_pricing_cache()
