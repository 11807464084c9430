"""Timing strategies for candidate comparison during tuning.

The DP needs "which candidate is fastest".  Two ways to answer:

* :class:`CostModelTiming` — price the candidate's exact op multiset with
  a pricing: the analytic :class:`~repro.machines.profile.MachineProfile`
  or a fitted :class:`~repro.modeltuner.costmodel.CostModel`, both of
  which answer ``op_seconds(op, n)``.  Deterministic, instant, and
  re-targetable to any architecture; the default.
* :class:`WallclockTiming` — execute the candidate on the training
  instances and take the median of repeated wall-clock measurements, the
  way the real PetaBricks autotuner times candidates on the machine it
  runs on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.machines.meter import OpMeter
from repro.machines.profile import MachineProfile
from repro.util.timing import median_time

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.modeltuner.costmodel import CostModel

__all__ = ["CostModelTiming", "TimingStrategy", "WallclockTiming"]

RunFn = Callable[[np.ndarray, np.ndarray], None]


class TimingStrategy:
    """Interface: seconds for one application of a candidate."""

    def time_candidate(
        self,
        unit_meter: OpMeter,
        run: RunFn | None = None,
        starts: Sequence[tuple[np.ndarray, np.ndarray]] = (),
    ) -> float:
        raise NotImplementedError

    def op_seconds(self, op: str, n: int) -> float:
        """Price of a single primitive op (used for budget pruning)."""
        raise NotImplementedError

    def price(self, meter: OpMeter) -> float:
        """Sum of :meth:`op_seconds` over ``meter`` — the estimate budget
        pruning, backend placement and acquisition compare."""
        return meter.price(self.op_seconds)


class CostModelTiming(TimingStrategy):
    """Prices candidates with a :class:`MachineProfile` or a fitted
    :class:`CostModel`; ``profile`` is the machine profile that plan
    metadata names (the pricing itself, or the model's base)."""

    def __init__(self, pricing: "MachineProfile | CostModel") -> None:
        self.pricing = pricing
        self.profile: MachineProfile = getattr(pricing, "base", pricing)

    def time_candidate(
        self,
        unit_meter: OpMeter,
        run: RunFn | None = None,
        starts: Sequence[tuple[np.ndarray, np.ndarray]] = (),
    ) -> float:
        return self.price(unit_meter)

    def op_seconds(self, op: str, n: int) -> float:
        return self.pricing.op_seconds(op, n)


class WallclockTiming(TimingStrategy):
    """Median wall-clock over training instances x repeats.

    Execution mutates fresh copies of the provided starts, so candidates
    with different iteration counts are timed end-to-end, like PetaBricks
    timing a compiled configuration.
    """

    def __init__(self, repeats: int = 3) -> None:
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        self.repeats = repeats

    def time_candidate(
        self,
        unit_meter: OpMeter,
        run: RunFn | None = None,
        starts: Sequence[tuple[np.ndarray, np.ndarray]] = (),
    ) -> float:
        if run is None or not starts:
            raise ValueError("wallclock timing needs a run and training instances")
        samples = []
        for x0, b in starts:
            samples.append(median_time(lambda: run(x0.copy(), b), repeats=self.repeats))
        samples.sort()
        return samples[len(samples) // 2]

    def op_seconds(self, op: str, n: int) -> float:
        # No pricing available; disable budget pruning.
        return 0.0
