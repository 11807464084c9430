"""Exporters: JSONL span logs, Chrome trace_event JSON, Prometheus text.

Three consumers, three formats:

- **JSONL** is the durable structured log — one span per line, append
  friendly, greppable, and the interchange format the ``repro-mg obs``
  CLI reads back.
- **Chrome trace_event** (``{"traceEvents": [...]}`` with ``ph: "X"``
  complete events, microsecond timestamps) loads directly into
  Perfetto / ``about:tracing`` for flame-chart inspection of one
  request's span tree.
- **Prometheus text exposition** renders the JSON snapshot dict the
  serve telemetry exports (one server's, or a sharded front door's
  tiers) for scrape-style dashboards.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Iterable

from repro.obs.trace import Span

__all__ = [
    "chrome_trace",
    "prometheus_text",
    "read_spans_jsonl",
    "span_from_dict",
    "span_to_dict",
    "write_spans_jsonl",
]


# -- span (de)serialization ------------------------------------------------


def span_to_dict(span: Span) -> dict[str, Any]:
    """JSON-serializable span record (the JSONL line format)."""
    return {
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "name": span.name,
        "start_s": span.start_s,
        "end_s": span.end_s,
        "pid": span.pid,
        "tid": span.tid,
        "attrs": span.attrs,
    }


def span_from_dict(data: dict[str, Any]) -> Span:
    span = Span(
        str(data["name"]),
        str(data["trace_id"]),
        str(data["span_id"]),
        data.get("parent_id"),
        float(data["start_s"]),
        pid=int(data.get("pid", 0)),
        tid=int(data.get("tid", 0)),
        attrs=dict(data.get("attrs") or {}),
    )
    end = data.get("end_s")
    span.end_s = float(end) if end is not None else None
    return span


def write_spans_jsonl(spans: Iterable[Span], path: str | Path) -> int:
    """Write spans one-per-line; returns the number written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    n = 0
    with path.open("w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span_to_dict(span), sort_keys=True))
            fh.write("\n")
            n += 1
    return n


def read_spans_jsonl(path: str | Path) -> list[Span]:
    spans: list[Span] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                spans.append(span_from_dict(json.loads(line)))
    return spans


# -- Chrome trace_event ----------------------------------------------------


def chrome_trace(spans: Iterable[Span]) -> dict[str, Any]:
    """Spans as a Chrome ``trace_event`` document (Perfetto-loadable).

    Every span becomes one complete event (``ph: "X"``) with
    microsecond ``ts``/``dur``; trace/span/parent ids ride in ``args``
    so the tree stays reconstructable from the exported file.  Spans
    from different processes land on their own ``pid`` tracks.
    """
    events: list[dict[str, Any]] = []
    for span in spans:
        args = dict(span.attrs)
        args["trace_id"] = span.trace_id
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        events.append(
            {
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": span.start_s * 1e6,
                "dur": span.duration_s * 1e6,
                "pid": span.pid,
                "tid": span.tid,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- Prometheus text format ------------------------------------------------

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_SHARD_GAUGE_RE = re.compile(r"^shard(\d+):(.+)$")


def _prom_name(name: str, prefix: str) -> str:
    safe = _NAME_RE.sub("_", name)
    if prefix and not safe.startswith(prefix):
        safe = f"{prefix}{safe}"
    return safe


def prometheus_text(source: dict[str, Any], prefix: str = "repro_") -> str:
    """Prometheus text exposition of a telemetry snapshot.

    Accepts the snapshot dict exported by
    :meth:`repro.serve.telemetry.Telemetry.snapshot` (the shape
    ``repro-mg serve --json`` writes, and what ``server.stats()``
    returns for a live server), or the ``FrontDoor.stats()`` shape that
    nests one snapshot per tier, so the CLI can export from a file long
    after the server is gone.
    """
    # One family may collect samples from several tiers (front door +
    # every shard); Prometheus requires a family's samples contiguous
    # under a single # TYPE line, so group first, render second.
    families: dict[str, tuple[str, list[str]]] = {}
    if any(k in source for k in ("counters", "gauges", "latency")):
        _snapshot_families(source, prefix, "", families)
    else:
        # FrontDoor.stats() shape: {"frontdoor": snapshot,
        # "shards": {index: snapshot}} — label each tier.
        front = source.get("frontdoor")
        if isinstance(front, dict):
            _snapshot_families(front, prefix, '{tier="frontdoor"}', families)
        shards = source.get("shards", {})
        if isinstance(shards, dict):
            for index, snap in sorted(
                shards.items(), key=lambda kv: str(kv[0])
            ):
                if isinstance(snap, dict):
                    _snapshot_families(
                        snap,
                        prefix,
                        f'{{tier="shard",shard="{index}"}}',
                        families,
                    )
    lines: list[str] = []
    for name, (kind, samples) in families.items():
        lines.append(f"# TYPE {name} {kind}")
        lines.extend(samples)
    return "\n".join(lines) + "\n"


def _snapshot_families(
    source: dict[str, Any],
    prefix: str,
    labels: str,
    families: dict[str, tuple[str, list[str]]],
) -> None:
    """Fold one telemetry snapshot into ``families`` (name -> (type,
    sample lines)), appending ``labels`` to every sample."""

    def add(name: str, kind: str, sample_lines: list[str]) -> None:
        families.setdefault(name, (kind, []))[1].extend(sample_lines)

    for key, value in source.get("counters", {}).items():
        name = _prom_name(key, prefix)
        add(name, "counter", [f"{name}{labels} {value}"])
    for key, value in source.get("gauges", {}).items():
        # Per-shard gauges ("shard<i>:<name>") share one family with a
        # shard label, so the family count stays fixed as shards grow.
        per_shard = _SHARD_GAUGE_RE.match(key)
        if per_shard:
            index, key = per_shard.groups()
            shard = f'shard="{index}"'
            sample_labels = f"{labels[:-1]},{shard}}}" if labels else f"{{{shard}}}"
            key = f"shard_{key}"
        else:
            sample_labels = labels
        name = _prom_name(key, prefix)
        add(name, "gauge", [f"{name}{sample_labels} {value}"])
    for hist_name, summary in source.get("latency", {}).items():
        name = _prom_name(f"latency_{hist_name}", prefix)
        add(
            name,
            "summary",
            [f"{name}_{key}{labels} {value}" for key, value in summary.items()],
        )
