"""Cycle shapes: the time/level path of a tuned algorithm's execution."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

from repro.tuner.trace import TraceEvent

__all__ = ["CycleShape", "ShapeStep", "extract_shape"]

StepKind = Literal["relax", "direct", "sor", "down", "up"]


@dataclass(frozen=True)
class ShapeStep:
    """One horizontal increment of the cycle diagram.

    ``kind``:
      * ``relax`` — a dot at ``level`` (one SOR(1.15) sweep inside RECURSE)
      * ``direct`` — solid horizontal arrow at ``level``
      * ``sor`` — dashed horizontal arrow at ``level`` (``count`` sweeps)
      * ``down`` — diagonal restriction ``level`` -> ``level - 1``
      * ``up`` — diagonal interpolation ``level`` -> ``level + 1``
    """

    kind: StepKind
    level: int
    count: int = 1


@dataclass(frozen=True)
class CycleShape:
    """A rendered-ready cycle: top level plus the step sequence."""

    top_level: int
    steps: tuple[ShapeStep, ...]

    @property
    def min_level(self) -> int:
        return min(s.level - (1 if s.kind == "down" else 0) for s in self.steps) if self.steps else self.top_level

    def width(self) -> int:
        return len(self.steps)

    def relaxations_per_level(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for s in self.steps:
            if s.kind == "relax":
                out[s.level] = out.get(s.level, 0) + 1
        return out


def extract_shape(trace: Sequence[TraceEvent]) -> CycleShape:
    """Convert an execution trace (``plan.trace(level, acc_index)``) into
    a cycle shape.

    The trace's enter/exit events carry the recursion bookkeeping; the
    remaining events map one-to-one onto shape steps.
    """
    events = list(trace)
    if not events:
        raise ValueError("cannot extract a shape from an empty trace")
    top = events[0].level
    steps: list[ShapeStep] = []
    for ev in events:
        if ev.kind == "relax":
            steps.append(ShapeStep("relax", ev.level))
        elif ev.kind == "direct":
            steps.append(ShapeStep("direct", ev.level))
        elif ev.kind == "sor":
            steps.append(ShapeStep("sor", ev.level, max(ev.detail, 1)))
        elif ev.kind == "descend":
            steps.append(ShapeStep("down", ev.level))
        elif ev.kind == "ascend":
            steps.append(ShapeStep("up", ev.level - 1))
        # enter/exit/estimate events shape the call stack view, not the cycle
    return CycleShape(top_level=top, steps=tuple(steps))
