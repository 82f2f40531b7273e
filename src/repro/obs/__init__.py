"""``repro.obs`` — hierarchical span tracing, metrics, and logging.

The observability layer the rest of the package instruments against:

* :mod:`repro.obs.trace` — contextvar-scoped :class:`Span` frames with
  exclusive-time accounting, fork-safe per-process JSONL shards, and a
  merge step that folds a parallel run into one ordered trace.  Timing
  is always on (the engine's ``RunReport`` is derived from these
  frames); record emission happens only when tracing is enabled, so a
  disabled tracer costs two clock reads per span.
* :mod:`repro.obs.metrics` — a process-global registry of counters,
  gauges, and histograms with a stable JSON snapshot (schema-checked in
  CI) and a Prometheus-style text exposition.  Workers ship snapshot
  deltas back to the engine so parallel totals match serial ones.
* :mod:`repro.obs.log` — the stdlib-``logging`` ``repro.*`` tree behind
  the CLI's ``-v`` flag.
* :mod:`repro.obs.inspect` — trace analysis (slowest spans, per-name
  exclusive-time aggregates, cache effectiveness) for ``repro inspect``,
  plus access-log aggregation for the serve daemon's request records.

This package is a leaf: it imports nothing from the rest of ``repro``,
so any layer — geo, bgp, anycast, engine, cli — may instrument freely
without import cycles.

Quickstart::

    from repro.obs import trace, metrics

    with trace.capture("run.jsonl", name="my-analysis"):
        with trace.span("phase.load", rows=len(rows)):
            ...
    metrics.counter("rows.total").inc(len(rows))
    print(metrics.to_text())
"""

from .log import ROOT_LOGGER, JsonLineFormatter, configure_logging, get_logger
from .metrics import (
    DEFAULT_BUCKETS,
    LATENCY_BUCKETS_MS,
    SNAPSHOT_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metrics,
    rss_peak_bytes,
    sample_process_stats,
)
from .trace import (
    Span,
    Tracer,
    current_trace_id,
    load_trace,
    merge_shards,
    set_trace_id,
    trace,
)

__all__ = [
    "ROOT_LOGGER",
    "JsonLineFormatter",
    "configure_logging",
    "get_logger",
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS_MS",
    "SNAPSHOT_SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metrics",
    "rss_peak_bytes",
    "sample_process_stats",
    "Span",
    "Tracer",
    "current_trace_id",
    "load_trace",
    "merge_shards",
    "set_trace_id",
    "trace",
]
