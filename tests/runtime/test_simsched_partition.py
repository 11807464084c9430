"""Tests for the virtual-time scheduler and grid partitioning."""

import numpy as np
import pytest

from repro.machines.presets import INTEL_HARPERTOWN
from repro.relax.sor import sor_redblack
from repro.runtime.partition import partition_rows, sweep_task_graph
from repro.runtime.simsched import SimulatedScheduler
from repro.runtime.task import TaskGraph
from repro.workloads.distributions import make_problem


def uniform_graph(tasks: int, cost: float = 1.0, width: int = 0) -> TaskGraph:
    """``tasks`` independent tasks (width=0) or a chain (width=1)."""
    g = TaskGraph()
    prev = ()
    for i in range(tasks):
        g.add(f"t{i}", deps=prev, cost=cost)
        if width == 1:
            prev = (f"t{i}",)
    return g


class TestSimulatedScheduler:
    def test_single_worker_is_serial_time(self):
        g = uniform_graph(10, cost=2.0)
        rep = SimulatedScheduler(workers=1).run(g)
        assert rep.makespan == pytest.approx(20.0)
        assert rep.speedup == pytest.approx(1.0)

    def test_perfect_parallelism(self):
        g = uniform_graph(8, cost=3.0)
        rep = SimulatedScheduler(workers=8).run(g)
        assert rep.makespan == pytest.approx(3.0)
        assert rep.speedup == pytest.approx(8.0)

    def test_chain_limited_by_critical_path(self):
        g = uniform_graph(10, cost=1.0, width=1)
        rep = SimulatedScheduler(workers=4).run(g)
        assert rep.makespan == pytest.approx(g.critical_path_cost())

    def test_graham_bound(self):
        # makespan <= serial/P + critical path (greedy list scheduling).
        rng = np.random.default_rng(0)
        g = TaskGraph()
        names = []
        for i in range(40):
            deps = tuple(rng.choice(names, size=min(len(names), int(rng.integers(0, 3))), replace=False)) if names else ()
            g.add(f"t{i}", deps=deps, cost=float(rng.uniform(0.5, 2.0)))
            names.append(f"t{i}")
        for p in (1, 2, 4, 8):
            rep = SimulatedScheduler(workers=p).run(g)
            bound = g.total_cost() / p + g.critical_path_cost()
            assert rep.makespan <= bound + 1e-9
            assert rep.makespan >= g.critical_path_cost() - 1e-9
            assert rep.makespan >= g.total_cost() / p - 1e-9

    def test_completion_order_topological(self):
        g = uniform_graph(10, width=1)
        rep = SimulatedScheduler(workers=4).run(g)
        assert list(rep.completion_order) == [f"t{i}" for i in range(10)]

    def test_overheads_add_up(self):
        g = uniform_graph(4, cost=1.0)
        plain = SimulatedScheduler(workers=1).run(g).makespan
        padded = SimulatedScheduler(workers=1, steal_overhead=0.5).run(g).makespan
        assert padded == pytest.approx(plain + 4 * 0.5)

    def test_empty_graph(self):
        rep = SimulatedScheduler(workers=2).run(TaskGraph())
        assert rep.makespan == 0.0

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            SimulatedScheduler(workers=0)


class TestPartition:
    def test_rows_cover_interior_exactly(self):
        for n in (5, 9, 17, 33):
            for blocks in (1, 2, 3, 8, 100):
                spans = partition_rows(n, blocks)
                rows = []
                for lo, hi in spans:
                    rows.extend(range(lo, hi))
                assert rows == list(range(1, n - 1))

    def test_rejects_zero_blocks(self):
        with pytest.raises(ValueError):
            partition_rows(9, 0)

    @pytest.mark.parametrize("blocks", [1, 2, 3, 5])
    @pytest.mark.parametrize("n", [5, 9, 17])
    def test_block_sweep_matches_serial(self, n, blocks):
        problem = make_problem("unbiased", n, seed=700 + n)
        serial = problem.initial_guess()
        sor_redblack(serial, problem.b, 1.15, 1)
        parallel = problem.initial_guess()
        graph = sweep_task_graph(parallel, problem.b, 1.15, blocks)
        for task in graph.topological_order():
            task.run()
        np.testing.assert_allclose(parallel, serial, rtol=1e-12, atol=1e-12)

    def test_costs_attached_with_profile(self):
        problem = make_problem("unbiased", 17, seed=701)
        x = problem.initial_guess()
        graph = sweep_task_graph(x, problem.b, 1.15, 4, profile=INTEL_HARPERTOWN)
        costs = [t.cost for t in graph.tasks()]
        assert all(c > 0 for c in costs)
        # Red and black phases share the serial cost evenly.
        assert max(costs) == pytest.approx(min(costs))

    def test_barrier_structure(self):
        problem = make_problem("unbiased", 17, seed=702)
        x = problem.initial_guess()
        graph = sweep_task_graph(x, problem.b, 1.15, 4)
        black = [t for t in graph.tasks() if "black" in t.name]
        red_names = {t.name for t in graph.tasks() if "red" in t.name}
        for t in black:
            assert set(t.deps) == red_names
