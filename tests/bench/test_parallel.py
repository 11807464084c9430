"""Tests for trace -> task-graph conversion and parallel simulation."""

import pytest

from repro.bench.parallel import simulate_trace, trace_task_graph
from repro.machines.presets import INTEL_HARPERTOWN
from repro.tuner.trace import TraceEvent


def v_trace() -> list[TraceEvent]:
    """relax, descend, direct, ascend, relax at levels 5/4."""
    return [
        TraceEvent("enter", 5, 0),
        TraceEvent("relax", 5),
        TraceEvent("descend", 5),
        TraceEvent("direct", 4),
        TraceEvent("ascend", 5),
        TraceEvent("relax", 5),
        TraceEvent("exit", 5),
    ]


class TestTraceTaskGraph:
    def test_enter_exit_skipped(self):
        g = trace_task_graph(v_trace(), INTEL_HARPERTOWN, blocks=1)
        names = [t.name for t in g.tasks()]
        assert not any("enter" in n or "exit" in n for n in names)

    def test_block_fanout(self):
        g1 = trace_task_graph(v_trace(), INTEL_HARPERTOWN, blocks=1)
        g4 = trace_task_graph(v_trace(), INTEL_HARPERTOWN, blocks=4)
        assert len(g4) > len(g1)

    def test_direct_is_single_serial_task(self):
        g = trace_task_graph(v_trace(), INTEL_HARPERTOWN, blocks=8)
        directs = [t for t in g.tasks() if t.name.startswith("direct")]
        assert len(directs) == 1

    def test_stage_ordering_preserved(self):
        g = trace_task_graph(v_trace(), INTEL_HARPERTOWN, blocks=2)
        order = [t.name for t in g.topological_order()]
        first_relax = min(i for i, n in enumerate(order) if n.startswith("relax"))
        direct_pos = next(i for i, n in enumerate(order) if n.startswith("direct"))
        assert first_relax < direct_pos

    def test_total_cost_close_to_serial_sum(self):
        # Splitting into blocks must conserve total work.
        g1 = trace_task_graph(v_trace(), INTEL_HARPERTOWN, blocks=1)
        g4 = trace_task_graph(v_trace(), INTEL_HARPERTOWN, blocks=4)
        assert g4.total_cost() == pytest.approx(g1.total_cost(), rel=1e-9)

    def test_rejects_zero_blocks(self):
        with pytest.raises(ValueError):
            trace_task_graph(v_trace(), INTEL_HARPERTOWN, blocks=0)

    def test_sor_event_scales_with_sweeps(self):
        g10 = trace_task_graph([TraceEvent("sor", 5, 10)], INTEL_HARPERTOWN, blocks=1)
        g1 = trace_task_graph([TraceEvent("sor", 5, 1)], INTEL_HARPERTOWN, blocks=1)
        assert g10.total_cost() == pytest.approx(10 * g1.total_cost(), rel=1e-9)


class TestSimulateTrace:
    def test_more_workers_never_slower(self):
        trace = v_trace()
        times = [
            simulate_trace(trace, INTEL_HARPERTOWN, workers=w).makespan
            for w in (1, 2, 4, 8)
        ]
        for a, b in zip(times, times[1:]):
            assert b <= a * 1.001

    def test_serial_direct_limits_speedup(self):
        # A direct-solve-only trace cannot speed up at all.
        t = [TraceEvent("direct", 6)]
        s1 = simulate_trace(t, INTEL_HARPERTOWN, workers=1).makespan
        s8 = simulate_trace(t, INTEL_HARPERTOWN, workers=8).makespan
        assert s8 == pytest.approx(s1, rel=0.01)

    def test_blocks_default_to_workers(self):
        rep = simulate_trace(v_trace(), INTEL_HARPERTOWN, workers=4)
        assert rep.workers == 4
