"""Exporters: JSONL round-trip, Chrome trace_event validity, Prometheus text."""

import json

import pytest

from repro.obs.export import (
    chrome_trace,
    prometheus_text,
    read_spans_jsonl,
    span_from_dict,
    span_to_dict,
    write_spans_jsonl,
)
from repro.obs.trace import Tracer
from repro.util.clock import ManualClock


def sample_spans():
    tracer = Tracer(clock=ManualClock())
    with tracer.span("serve.request", level=7) as root:
        tracer.clock.advance(0.010)
        with tracer.span("mg.level", level=7, backend="numpy"):
            tracer.clock.advance(0.004)
            tracer.leaf("op.relax", {"level": 7}, tracer.clock.now() - 0.001)
    return tracer.spans(), root


class TestJsonl:
    def test_round_trip_preserves_every_field(self, tmp_path):
        spans, _ = sample_spans()
        path = tmp_path / "spans.jsonl"
        assert write_spans_jsonl(spans, path) == len(spans)
        back = read_spans_jsonl(path)
        assert [span_to_dict(s) for s in back] == [span_to_dict(s) for s in spans]

    def test_dict_round_trip_of_open_span(self):
        tracer = Tracer(clock=ManualClock())
        span = tracer.start("open", level=3)
        restored = span_from_dict(span_to_dict(span))
        assert restored.end_s is None
        assert restored.attrs == {"level": 3}

    def test_lines_are_one_json_object_each(self, tmp_path):
        spans, _ = sample_spans()
        path = tmp_path / "spans.jsonl"
        write_spans_jsonl(spans, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(spans)
        for line in lines:
            assert isinstance(json.loads(line), dict)


class TestChromeTrace:
    def test_document_shape(self):
        spans, root = sample_spans()
        doc = chrome_trace(spans)
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert len(doc["traceEvents"]) == len(spans)
        json.dumps(doc)  # must be valid JSON

    def test_events_are_complete_events_in_microseconds(self):
        spans, root = sample_spans()
        doc = chrome_trace(spans)
        by_name = {e["name"]: e for e in doc["traceEvents"]}
        for event in doc["traceEvents"]:
            assert event["ph"] == "X"
            assert {"ts", "dur", "pid", "tid", "args"} <= set(event)
        level = by_name["mg.level"]
        assert level["dur"] == pytest.approx(4000.0)  # 4ms in us

    def test_args_carry_the_tree(self):
        spans, root = sample_spans()
        doc = chrome_trace(spans)
        by_name = {e["name"]: e for e in doc["traceEvents"]}
        assert by_name["serve.request"]["args"]["trace_id"] == root.trace_id
        assert by_name["mg.level"]["args"]["parent_id"] == root.span_id
        assert by_name["op.relax"]["args"]["trace_id"] == root.trace_id


class TestPrometheus:
    def test_telemetry_snapshot_exposition(self):
        snapshot = {
            "counters": {"requests": 10, "rejected": 1},
            "gauges": {"queue_depth": 0.0},
            "latency": {"solve": {"count": 10, "p99_s": 0.02}},
        }
        text = prometheus_text(snapshot)
        assert "repro_requests 10" in text
        assert "repro_latency_solve_p99_s 0.02" in text

    def test_older_snapshot_sections_are_ignored(self):
        """A telemetry file written before the sliding windows went still
        exports; its ``windows`` section mints no family."""
        snapshot = {
            "counters": {"requests": 2},
            "windows": {"e2e": {"count": 2, "p99_s": 0.5}},
        }
        text = prometheus_text(snapshot)
        assert "repro_requests 2" in text
        assert "window" not in text

    def test_sharded_frontdoor_stats_exposition(self):
        """FrontDoor.stats() nests a snapshot per tier; the export labels
        them instead of silently emitting nothing."""
        stats = {
            "frontdoor": {
                "counters": {"requests_routed": 5},
                "gauges": {"pool_free": 7.0},
            },
            "shards": {
                "0": {"counters": {"requests_completed": 3}},
                "1": {"counters": {"requests_completed": 2}},
            },
        }
        text = prometheus_text(stats)
        assert 'repro_requests_routed{tier="frontdoor"} 5' in text
        assert 'repro_pool_free{tier="frontdoor"} 7.0' in text
        assert 'repro_requests_completed{tier="shard",shard="0"} 3' in text
        assert 'repro_requests_completed{tier="shard",shard="1"} 2' in text
        # a family's samples stay contiguous under one TYPE line even
        # when several tiers contribute
        assert text.count("# TYPE repro_requests_completed counter") == 1

    def test_names_are_sanitized(self):
        text = prometheus_text({"counters": {"weird-name.x": 1}})
        assert "repro_weird_name_x 1" in text
