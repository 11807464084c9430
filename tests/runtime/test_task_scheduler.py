"""Tests for the task graph."""

import pytest

from repro.runtime.task import TaskGraph


def diamond_graph(effects: list | None = None) -> TaskGraph:
    g = TaskGraph()
    log = effects if effects is not None else []
    for name, deps in (("a", ()), ("b", ("a",)), ("c", ("a",)), ("d", ("b", "c"))):
        g.add(name, fn=(lambda n=name: log.append(n)), deps=deps, cost=1.0)
    return g


class TestTaskGraph:
    def test_duplicate_name_rejected(self):
        g = TaskGraph()
        g.add("x")
        with pytest.raises(ValueError, match="duplicate"):
            g.add("x")

    def test_unknown_dep_rejected(self):
        with pytest.raises(ValueError, match="unknown task"):
            TaskGraph().add("x", deps=("ghost",))

    def test_topological_order_respects_deps(self):
        g = diamond_graph()
        order = [t.name for t in g.topological_order()]
        assert order.index("a") < order.index("b") < order.index("d")
        assert order.index("a") < order.index("c") < order.index("d")

    def test_critical_path_and_total(self):
        g = diamond_graph()
        assert g.total_cost() == pytest.approx(4.0)
        assert g.critical_path_cost() == pytest.approx(3.0)  # a -> b/c -> d

    def test_contains_and_len(self):
        g = diamond_graph()
        assert "a" in g and "z" not in g
        assert len(g) == 4
