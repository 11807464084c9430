"""Schema-versioned bench report envelopes.

Every benchmark in this repo writes its raw report JSON somewhere; this
module gives them one shared, versioned envelope so downstream tooling
(CI artifact diffing, dashboards, the ``repro-mg obs report`` command)
can discover and parse any bench output without knowing which bench
produced it.  The envelope is deliberately tiny::

    {
      "schema": "repro-mg-bench/v1",
      "bench": "<name>",
      "created": <wall-clock seconds, passed in by the caller>,
      "metrics": { ...bench-specific report... }
    }

Files are ``BENCH_<name>.json`` in the directory the caller names:
``benchmarks/out/`` (gitignored) for ad-hoc runs, ``benchmarks/`` for the
committed paper-figures run.  The wall-clock timestamp is *passed in*
rather than read here — benches already own a clock, and keeping this
module clock-free keeps envelope writing deterministic under test.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

__all__ = ["BENCH_SCHEMA", "bench_envelope", "read_bench_report", "write_bench_report"]

#: Version tag stamped on every envelope; bump on breaking shape changes.
BENCH_SCHEMA = "repro-mg-bench/v1"


def bench_envelope(
    name: str, metrics: Mapping[str, Any], created: float
) -> dict[str, Any]:
    """The envelope dict for one bench run (see module docstring)."""
    if not name or any(c in name for c in "/\\"):
        raise ValueError(f"bench name must be a bare label, not {name!r}")
    return {
        "schema": BENCH_SCHEMA,
        "bench": name,
        "created": created,
        "metrics": dict(metrics),
    }


def write_bench_report(
    name: str,
    metrics: Mapping[str, Any],
    created: float,
    out_dir: str | Path,
) -> Path:
    """Write ``BENCH_<name>.json`` under ``out_dir``; returns the path."""
    envelope = bench_envelope(name, metrics, created)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"BENCH_{name}.json"
    path.write_text(json.dumps(envelope, indent=2, sort_keys=True) + "\n")
    return path


def read_bench_report(path: str | Path) -> dict[str, Any]:
    """Load and validate one envelope; raises ValueError on shape drift."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or doc.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: not a {BENCH_SCHEMA} envelope "
            f"(schema={doc.get('schema') if isinstance(doc, dict) else None!r})"
        )
    for field in ("bench", "created", "metrics"):
        if field not in doc:
            raise ValueError(f"{path}: envelope missing {field!r}")
    return doc
