"""The paper's reference algorithms as fixed plans, and the solvers that
iterate them until an accuracy target is met.

The plans run on the same :class:`~repro.tuner.executor.PlanExecutor` as
every tuned plan and carry the one-rung
:data:`~repro.tuner.plan.FIXED_LADDER`.  Each solver step runs one fixed
plan; ``accuracy_of`` — typically
:meth:`repro.accuracy.AccuracyJudge.accuracy_of`, the error-ratio metric
the tuner optimizes for — decides when to stop.  The fixed plans are
built once per ``(level, ndim)`` and shared, so their compiled programs
are too; no caller changes a plan it is handed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from repro.machines.meter import OpMeter
from repro.operators.spec import OperatorSpec, parse_operator
from repro.tuner.choices import (
    Choice,
    DirectChoice,
    EstimateChoice,
    RecurseChoice,
    SORChoice,
)
from repro.tuner.executor import PlanExecutor
from repro.tuner.plan import FIXED_LADDER, TunedFullMGPlan, TunedVPlan, fixed_vplan
from repro.util.validation import level_of_size

__all__ = [
    "IterationLimit",
    "ReferenceFullMGSolver",
    "ReferenceVSolver",
    "SORSolver",
    "full_mg_plan",
    "sor_plan",
    "v_plan",
]

AccuracyFn = Callable[[np.ndarray], float]


@lru_cache(maxsize=None)
def v_plan(level: int, ndim: int = 2) -> TunedVPlan:
    """The standard V(1,1) cycle from ``level`` down to a 3x3 direct solve."""
    return fixed_vplan([DirectChoice()] + [RecurseChoice(0, 1)] * (level - 1), ndim)


@lru_cache(maxsize=None)
def full_mg_plan(level: int, ndim: int = 2) -> TunedFullMGPlan:
    """The standard full multigrid cycle: estimate by recursion, then one V."""
    table: dict[tuple[int, int], Choice] = {(1, 0): DirectChoice()}
    for k in range(2, level + 1):
        table[(k, 0)] = EstimateChoice(0, RecurseChoice(0, 1))
    return TunedFullMGPlan(FIXED_LADDER, level, table, v_plan(level, ndim), ndim=ndim)


@lru_cache(maxsize=None)
def sor_plan(level: int, ndim: int = 2) -> TunedVPlan:
    """One SOR(omega_opt) sweep at ``level``."""
    return fixed_vplan([SORChoice(1)] * level, ndim)


class IterationLimit(RuntimeError):
    """Raised when a reference solver exhausts its iteration budget."""


@dataclass
class _IterativeSolverBase:
    """Run fixed plans on ``x`` until ``accuracy_of(x) >= target``.

    ``operator`` is the operator spec (or canonical string); None means
    constant-coefficient Poisson of the input's dimensionality.
    """

    max_iters: int = 10_000
    operator: OperatorSpec | str | None = None

    def solve(
        self,
        x: np.ndarray,
        b: np.ndarray,
        accuracy_of: AccuracyFn,
        target: float,
        meter: OpMeter | None = None,
    ) -> int:
        """Iterate on ``x`` in place until the target accuracy; return the
        iteration count."""
        if accuracy_of(x) >= target:
            return 0
        spec = parse_operator(
            "poisson3d" if self.operator is None and x.ndim == 3 else self.operator
        )
        if spec.ndim != x.ndim:
            raise ValueError(f"operator is {spec.ndim}-D, input grid has ndim={x.ndim}")
        executor = PlanExecutor(operator=spec)
        first, step = self._plans(level_of_size(x.shape[0]), x.ndim)
        for it in range(1, self.max_iters + 1):
            plan = first if it == 1 else step
            if isinstance(plan, TunedFullMGPlan):
                executor.run_full_mg(plan, x, b, 0, meter)
            else:
                executor.run_v(plan, x, b, 0, meter)
            if accuracy_of(x) >= target:
                return it
        raise IterationLimit(
            f"{type(self).__name__} did not reach accuracy {target:g} in "
            f"{self.max_iters} iterations (n={x.shape[0]})"
        )

    def _plans(self, level: int, ndim: int) -> tuple[TunedVPlan | TunedFullMGPlan, TunedVPlan]:
        """The plans of the first and of every later iteration."""
        raise NotImplementedError


@dataclass
class SORSolver(_IterativeSolverBase):
    """Iterated red-black SOR with the size-optimal weight (Figure 6's "SOR")."""

    def _plans(self, level: int, ndim: int) -> tuple[TunedVPlan, TunedVPlan]:
        plan = sor_plan(level, ndim)
        return plan, plan


@dataclass
class ReferenceVSolver(_IterativeSolverBase):
    """Standard V cycles until the accuracy target is reached."""

    def _plans(self, level: int, ndim: int) -> tuple[TunedVPlan, TunedVPlan]:
        plan = v_plan(level, ndim)
        return plan, plan


@dataclass
class ReferenceFullMGSolver(_IterativeSolverBase):
    """One standard full-MG cycle, then V cycles until the target is reached.

    This is the paper's "reference full multigrid algorithm": a full
    multigrid cycle as in Figure 3, followed by standard V cycles.
    """

    def _plans(self, level: int, ndim: int) -> tuple[TunedFullMGPlan, TunedVPlan]:
        return full_mg_plan(level, ndim), v_plan(level, ndim)
