"""Observability: tracing, latency histograms, per-level solve profiling.

The paper's discipline is that performance is *measured, not assumed* —
the tuner times choices per level instead of trusting a model.  This
package extends that discipline from tuning to operations: when a
request is slow, "where did it spend its time" should be answerable
from a recorded span tree, not reconstructed from aggregate p99s.

Three layers, all optional and zero-overhead when off:

- :mod:`~repro.obs.trace` — ``Span``/``Tracer`` over the injectable
  clock layer, a lock-free ring-buffer :class:`~repro.obs.trace.SpanSink`,
  and a shared no-op tracer (:data:`~repro.obs.trace.NOOP_TRACER`) whose
  hot-path cost is one attribute load.
- :mod:`~repro.obs.metrics` — the geometric-bucket latency
  :class:`~repro.obs.metrics.Histogram` that every serving tier records
  into.  Counters and gauges live in the one metrics front
  end, :class:`repro.serve.telemetry.Telemetry`.
- :mod:`~repro.obs.profile` — per-(level, op, backend) wall-clock
  aggregation from executor spans: exactly the training rows a learned
  cost model needs, and the drift signal for stored machine profiles.

Exporters (:mod:`~repro.obs.export`) emit JSONL span logs, Chrome
``trace_event`` JSON (loadable in Perfetto / ``about:tracing``), and
the Prometheus text of a telemetry snapshot.  ``repro-mg obs
{report,trace,export}`` drives them from the command line.
"""

from repro.obs.bench import (
    BENCH_SCHEMA,
    bench_envelope,
    read_bench_report,
    write_bench_report,
)
from repro.obs.export import (
    chrome_trace,
    prometheus_text,
    read_spans_jsonl,
    span_from_dict,
    span_to_dict,
    write_spans_jsonl,
)
from repro.obs.metrics import Histogram, default_bounds
from repro.obs.profile import SolveProfiler
from repro.obs.runtime import configure, get_tracer, reset
from repro.obs.trace import (
    NOOP_TRACER,
    NoopTracer,
    Span,
    SpanContext,
    SpanSink,
    Tracer,
)

__all__ = [
    "BENCH_SCHEMA",
    "NOOP_TRACER",
    "Histogram",
    "NoopTracer",
    "SolveProfiler",
    "Span",
    "SpanContext",
    "SpanSink",
    "Tracer",
    "bench_envelope",
    "chrome_trace",
    "configure",
    "default_bounds",
    "get_tracer",
    "prometheus_text",
    "read_bench_report",
    "read_spans_jsonl",
    "reset",
    "span_from_dict",
    "span_to_dict",
    "write_bench_report",
    "write_spans_jsonl",
]
