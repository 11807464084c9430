"""Parallel runtime substrate (the PetaBricks runtime library, section 3.2.3).

"The runtime scheduler dynamically schedules tasks (that have their input
dependencies satisfied) across processors ...  Following the approach taken
by Cilk, we distribute work with thread-private deques and a task stealing
protocol."

Components:

* :class:`TaskGraph` / :class:`Task` — dependency DAG of work items; running
  them in :meth:`TaskGraph.topological_order` is the reference semantics.
* :class:`SimulatedScheduler` — executes task graphs on P virtual
  work-stealing workers in virtual time, with per-task durations from a
  machine profile.  Produces the paper's parallel scalability results
  deterministically on any host.
* :func:`partition_rows` — block decomposition of grid sweeps into tasks.
"""

from repro.runtime.task import Task, TaskGraph
from repro.runtime.simsched import SimReport, SimulatedScheduler
from repro.runtime.partition import partition_rows, sweep_task_graph

__all__ = [
    "SimReport",
    "SimulatedScheduler",
    "Task",
    "TaskGraph",
    "partition_rows",
    "sweep_task_graph",
]
