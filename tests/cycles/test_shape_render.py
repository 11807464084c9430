"""Tests for cycle-shape extraction, rendering, and statistics."""

import pytest

from repro.cycles.render import render_call_stack, render_cycle
from repro.cycles.shape import CycleShape, ShapeStep, extract_shape
from repro.cycles.stats import cycle_stats
from repro.tuner.trace import TraceEvent
from tests.tuner.test_choices_plan import tiny_vplan


def hand_trace() -> list[TraceEvent]:
    """A minimal V shape: relax, descend, direct, ascend, relax."""
    return [
        TraceEvent("enter", 2, 0),
        TraceEvent("relax", 2),
        TraceEvent("descend", 2),
        TraceEvent("enter", 1, 0),
        TraceEvent("direct", 1),
        TraceEvent("exit", 1),
        TraceEvent("ascend", 2),
        TraceEvent("relax", 2),
        TraceEvent("exit", 2),
    ]


class TestExtractShape:
    def test_step_sequence(self):
        shape = extract_shape(hand_trace())
        kinds = [s.kind for s in shape.steps]
        assert kinds == ["relax", "down", "direct", "up", "relax"]
        assert shape.top_level == 2
        assert shape.min_level == 1

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            extract_shape([])

    def test_relaxations_per_level(self):
        shape = extract_shape(hand_trace())
        assert shape.relaxations_per_level() == {2: 2}

    def test_real_plan_trace(self):
        shape = extract_shape(tiny_vplan().trace(3, 1))
        # (3,1) = recurse x3 into (2,0) = SOR: three descend/ascend pairs.
        downs = [s for s in shape.steps if s.kind == "down"]
        assert len(downs) == 3
        sors = [s for s in shape.steps if s.kind == "sor"]
        assert len(sors) == 3
        assert all(s.count == 5 for s in sors)


class TestRenderCycle:
    def test_contains_level_labels_and_glyphs(self):
        shape = extract_shape(hand_trace())
        text = render_cycle(shape)
        assert "level  2" in text
        assert "level  1" in text
        assert "==>" in text  # direct
        assert "*" in text  # relaxation
        assert "\\" in text and "/" in text

    def test_legend_optional(self):
        shape = extract_shape(hand_trace())
        assert "legend" in render_cycle(shape)
        assert "legend" not in render_cycle(shape, legend=False)

    def test_sor_glyph_carries_count(self):
        shape = CycleShape(top_level=2, steps=(ShapeStep("sor", 2, 7),))
        assert "-7->" in render_cycle(shape, legend=False)

    def test_rows_cover_level_range(self):
        shape = extract_shape(hand_trace())
        lines = render_cycle(shape, legend=False).splitlines()
        assert len(lines) == 2  # levels 2 and 1


class TestRenderCallStack:
    def test_direct_leaf(self):
        plan = tiny_vplan()
        text = render_call_stack(plan, 1, 0)
        assert "direct solve" in text

    def test_recursive_chain_indented(self):
        plan = tiny_vplan()
        text = render_call_stack(plan, 3, 1)
        lines = text.splitlines()
        assert "RECURSE x 3" in lines[0]
        assert lines[1].startswith("  ")
        assert "SOR(w_opt) x 5" in lines[1]

    def test_fmg_stack(self, tuned_fmg_plan):
        text = render_call_stack(tuned_fmg_plan, tuned_fmg_plan.max_level, 0)
        assert "FULL-MG" in text


class TestCycleStats:
    def test_hand_trace_stats(self):
        stats = cycle_stats(extract_shape(hand_trace()))
        assert stats.top_level == 2
        assert stats.bottom_level == 1
        assert stats.direct_level == 1
        assert stats.depth == 1
        assert stats.transitions == 2
        assert stats.sor_segments == 0

    def test_sor_segments_counted(self):
        shape = CycleShape(
            top_level=3,
            steps=(ShapeStep("sor", 3, 4), ShapeStep("sor", 3, 2)),
        )
        stats = cycle_stats(shape)
        assert stats.sor_segments == 2
        assert stats.direct_level is None
