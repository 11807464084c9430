"""Task-graph construction for parallel-scaling experiments (Figure 9).

Converts a tuned plan's execution trace (read off the plan with
``plan.trace(level, acc_index)``, no solve needed) into a task graph:
every stencil op becomes a row-block fan-out with a barrier to the next
op; direct solves are single serial tasks.  The virtual-time work-stealing simulator then
yields makespans at different worker counts — the same Amdahl structure a
real parallel run of the algorithm exhibits (serial coarse-grid work limits
speedup; fine-grid sweeps parallelize well).
"""

from __future__ import annotations

from typing import Sequence

from repro.machines.profile import MachineProfile
from repro.runtime.simsched import SimReport, SimulatedScheduler
from repro.runtime.task import TaskGraph
from repro.tuner.trace import TraceEvent
from repro.util.validation import size_of_level

__all__ = ["simulate_trace", "trace_task_graph"]


def _op_cost(profile: MachineProfile, op: str, n: int) -> float:
    name = "relax" if op in ("relax", "sor") else op
    t = profile.stencil_time(name, n, threads=1) - profile.op_overhead
    return max(t, 0.0)


def trace_task_graph(
    trace: Sequence[TraceEvent],
    profile: MachineProfile,
    blocks: int,
) -> TaskGraph:
    """Task graph of a traced plan execution with per-task simulated costs."""
    if blocks < 1:
        raise ValueError("blocks must be >= 1")
    graph = TaskGraph()
    prev_stage: list[str] = []
    counter = 0
    for ev in trace:
        if ev.kind in ("enter", "exit", "estimate"):
            continue
        n = size_of_level(ev.level)
        counter += 1
        if ev.kind == "direct":
            name = f"direct-{counter}"
            graph.add(name, deps=prev_stage, cost=profile.direct_time(n, cached=False))
            prev_stage = [name]
            continue
        if ev.kind == "descend":
            op, sweeps = "restrict", 1
        elif ev.kind == "ascend":
            op, sweeps = "interpolate", 1
        elif ev.kind == "sor":
            op, sweeps = "sor", max(ev.detail, 1)
        else:  # relax
            op, sweeps = "relax", 1
        serial = _op_cost(profile, op, n) * sweeps
        # Do not split tiny grids below a useful chunk size.
        points = n * n
        width = max(1, min(blocks, points // 512 or 1))
        cost = serial / width
        stage = []
        for blk in range(width):
            name = f"{op}-{counter}-b{blk}"
            graph.add(name, deps=prev_stage, cost=cost)
            stage.append(name)
        prev_stage = stage
    return graph


def simulate_trace(
    trace: Sequence[TraceEvent],
    profile: MachineProfile,
    workers: int,
    blocks: int | None = None,
) -> SimReport:
    """Simulated makespan of a traced execution on ``workers`` workers.

    ``blocks`` defaults to ``workers`` (one block per worker, the natural
    data-parallel decomposition).  Scheduling overheads come from the
    profile's sync cost.
    """
    blocks = workers if blocks is None else blocks
    graph = trace_task_graph(trace, profile, blocks)
    sched = SimulatedScheduler(
        workers=workers,
        steal_overhead=profile.sync_overhead * 0.1,
        dispatch_overhead=profile.op_overhead * 0.1,
    )
    return sched.run(graph)
