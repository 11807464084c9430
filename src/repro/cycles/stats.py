"""Summary statistics of cycle shapes, reported by the figure 5 and 14 drivers."""

from __future__ import annotations

from dataclasses import dataclass

from repro.cycles.shape import CycleShape

__all__ = ["CycleStats", "cycle_stats"]


@dataclass(frozen=True)
class CycleStats:
    """Quantities the paper reads off its cycle figures."""

    top_level: int
    #: coarsest level the cycle touches
    bottom_level: int
    #: level at which the direct solver is called (None if never)
    direct_level: int | None
    #: relaxation counts per level
    relaxations: dict[int, int]
    #: number of standalone iterated-SOR segments
    sor_segments: int
    #: total descend/ascend transitions
    transitions: int

    @property
    def depth(self) -> int:
        return self.top_level - self.bottom_level


def cycle_stats(shape: CycleShape) -> CycleStats:
    """Extract the comparison quantities from a shape."""
    direct_level: int | None = None
    sor_segments = 0
    transitions = 0
    for step in shape.steps:
        if step.kind == "direct":
            if direct_level is None or step.level < direct_level:
                direct_level = step.level
        elif step.kind == "sor":
            sor_segments += 1
        elif step.kind in ("down", "up"):
            transitions += 1
    return CycleStats(
        top_level=shape.top_level,
        bottom_level=shape.min_level,
        direct_level=direct_level,
        relaxations=shape.relaxations_per_level(),
        sor_segments=sor_segments,
        transitions=transitions,
    )
