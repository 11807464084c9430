"""Program steps of tuned algorithms.

Execution is open-loop, so what one call of a tuned plan does follows
from the plan alone: each slot compiles once into a *program*, the flat
tuple of :class:`TraceEvent` steps the call runs, annotated with
recursion levels and accuracy indices
(:meth:`TunedVPlan.program <repro.tuner.plan.TunedVPlan.program>`).
:class:`~repro.tuner.executor.PlanExecutor` runs a program as one loop
over its steps, the plan's meters count them, the tuners' training keys
are its op steps, and a plan's trace *is* the program.  Figures 4 (call
stacks), 5 and 14 (cycle shapes) of the paper are renderings of exactly
this information; ``benchmarks/paper_figures.py`` draws them from traces.

A step is a named tuple, so a program hashes and compares at C speed:
training keys are looked up once per candidate.
"""

from __future__ import annotations

from typing import Literal, NamedTuple

__all__ = ["OP_STEPS", "TraceEvent"]

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

#: The steps that run kernels; ``enter``, ``exit`` and ``estimate`` only
#: mark a program's structure.
OP_STEPS = frozenset({"relax", "sor", "direct", "descend", "ascend"})


class TraceEvent(NamedTuple):
    kind: EventKind
    level: int
    #: accuracy index for enter/estimate events, sweep count for sor, else 0
    detail: int = 0
