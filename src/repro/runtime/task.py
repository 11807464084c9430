"""Task graph: the unit of scheduling.

A :class:`Task` is a callable with explicit dependencies; a
:class:`TaskGraph` owns a set of tasks and validates acyclicity.  Running
the tasks in :meth:`TaskGraph.topological_order` is the reference
semantics; the virtual-time simulator schedules the same graphs, so a
decomposition checked against the serial result carries over to its
timing model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import networkx as nx

__all__ = ["Task", "TaskGraph"]


@dataclass
class Task:
    """One schedulable work item.

    ``cost`` is the simulated duration (seconds) used by the virtual-time
    scheduler; running the task ignores it.  ``fn`` may be None for pure
    synchronization nodes.
    """

    name: str
    fn: Callable[[], None] | None = None
    deps: tuple[str, ...] = ()
    cost: float = 0.0

    def run(self) -> None:
        if self.fn is not None:
            self.fn()


class TaskGraph:
    """A DAG of named tasks."""

    def __init__(self) -> None:
        self._tasks: dict[str, Task] = {}

    def add(
        self,
        name: str,
        fn: Callable[[], None] | None = None,
        deps: Iterable[str] = (),
        cost: float = 0.0,
    ) -> Task:
        """Add a task; dependencies must already exist."""
        if name in self._tasks:
            raise ValueError(f"duplicate task name {name!r}")
        deps = tuple(deps)
        for d in deps:
            if d not in self._tasks:
                raise ValueError(f"task {name!r} depends on unknown task {d!r}")
        task = Task(name=name, fn=fn, deps=deps, cost=cost)
        self._tasks[name] = task
        return task

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, name: str) -> bool:
        return name in self._tasks

    def task(self, name: str) -> Task:
        return self._tasks[name]

    def tasks(self) -> list[Task]:
        return list(self._tasks.values())

    def to_networkx(self) -> "nx.DiGraph":
        """Dependency digraph (edges point dep -> dependent)."""
        g = nx.DiGraph()
        for t in self._tasks.values():
            g.add_node(t.name)
            for d in t.deps:
                g.add_edge(d, t.name)
        return g

    def validate(self) -> None:
        """Raise if the graph has a dependency cycle."""
        g = self.to_networkx()
        if not nx.is_directed_acyclic_graph(g):
            cycle = nx.find_cycle(g)
            raise ValueError(f"task graph has a cycle: {cycle}")

    def topological_order(self) -> list[Task]:
        self.validate()
        order = nx.topological_sort(self.to_networkx())
        return [self._tasks[name] for name in order]

    def critical_path_cost(self) -> float:
        """Longest cost-weighted path — the lower bound on parallel time."""
        self.validate()
        g = self.to_networkx()
        longest: dict[str, float] = {}
        for name in nx.topological_sort(g):
            base = max((longest[p] for p in g.predecessors(name)), default=0.0)
            longest[name] = base + self._tasks[name].cost
        return max(longest.values(), default=0.0)

    def total_cost(self) -> float:
        """Sum of all task costs — the serial execution time."""
        return sum(t.cost for t in self._tasks.values())
