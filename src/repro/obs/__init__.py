"""Observability subsystem: span tracing, metrics, benchmarks.

Rabbit Order's claim is *end-to-end economics* — reordering pays for
itself only when its cost is measured next to the analysis it
accelerates.  This package is the measurement substrate that makes that
comparison a first-class, machine-readable artifact:

* :mod:`repro.obs.trace` — hierarchical span tracer (nestable,
  thread-aware, near-zero overhead while disabled) with JSON/flat-text
  exporters and per-phase totals.
* :mod:`repro.obs.metrics` — process-wide registry of counters, gauges
  and histograms; absorbs the pipeline's ad-hoc ``RabbitStats`` /
  ``OpCounter`` / fault-injection tallies under stable dotted names.
* :mod:`repro.obs.bench` — benchmark runner + suite registry emitting
  schema-versioned ``BENCH_*.json`` baselines, with tolerance-based
  regression comparison (``repro bench --compare``).
* :mod:`repro.obs.schema` — the ``BENCH_*.json`` schema and validator.

The tracer and registry are safe to import from any layer (stdlib-only
dependencies); :mod:`~repro.obs.bench` pulls in the ordering/analysis
stack and is loaded lazily.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter_delta,
    get_registry,
)
from repro.obs.trace import (
    Span,
    TraceCapture,
    Tracer,
    capture,
    format_spans,
    get_tracer,
    phase_totals,
    span,
)

__all__ = [
    "Span",
    "Tracer",
    "TraceCapture",
    "get_tracer",
    "span",
    "capture",
    "phase_totals",
    "format_spans",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "counter_delta",
    "bench",
    "schema",
]


def __getattr__(name: str):
    # Lazy: bench/schema import the ordering+analysis stack; keep plain
    # `import repro.obs` cheap for the instrumented hot modules.
    if name in ("bench", "schema"):
        import importlib

        return importlib.import_module(f"repro.obs.{name}")
    raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
