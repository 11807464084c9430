"""Execution traces of tuned algorithms.

A trace is the temporal sequence of primitive events a tuned plan performs,
annotated with recursion levels and accuracy indices.  Execution is
open-loop, so the sequence follows from the plan alone:
:meth:`TunedVPlan.trace <repro.tuner.plan.TunedVPlan.trace>` and
:meth:`TunedFullMGPlan.trace <repro.tuner.plan.TunedFullMGPlan.trace>`
read it off the table, in the order
:class:`~repro.tuner.executor.PlanExecutor` runs the ops.  Figures 4 (call
stacks), 5 and 14 (cycle shapes) of the paper are renderings of exactly
this information; ``benchmarks/paper_figures.py`` draws them from traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

__all__ = ["TraceEvent"]

EventKind = Literal[
    "enter",  # entering MULTIGRID-V_i / FULL-MULTIGRID_i at a level
    "exit",  # leaving it
    "relax",  # one SOR sweep inside RECURSE
    "sor",  # standalone iterated-SOR solve (dashed arrow in Fig 5)
    "direct",  # direct solve (solid arrow in Fig 5)
    "descend",  # residual + restriction to the coarser level
    "ascend",  # interpolation + correction back to the finer level
    "estimate",  # start of a full-MG estimation phase
]


@dataclass(frozen=True)
class TraceEvent:
    kind: EventKind
    level: int
    #: accuracy index for enter/estimate events, sweep count for sor, else 0
    detail: int = 0
