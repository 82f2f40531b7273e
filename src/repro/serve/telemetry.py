"""Per-request telemetry, derived from the ``serve.request`` span.

The request span is the daemon's only per-request record.  The server
sets the request's facts on it as attributes (``trace_id``,
``method``, ``path``, ``bytes_in``, ``endpoint``, ``status``,
``bytes_out``), and the span tallies its direct children — the
``serve.parse`` / ``serve.queue`` / ``serve.compute`` /
``serve.serialize`` phase spans — by name
(:meth:`~repro.obs.trace.Span.tally_children`).  When the span closes,
:meth:`RequestTelemetry.record` derives everything else from it, as
:meth:`~repro.engine.report.StageRecord.from_span` does for stages:

* one *access record* (``ACCESS_LOG_SCHEMA``): ``ts`` and ``dur_ms``
  are the span's start and duration, ``phases`` its children's
  durations in milliseconds.  It is appended to the ``--access-log``
  JSONL file (line-buffered, one object per line — the format
  ``repro inspect`` sniffs and aggregates) and kept in two in-memory
  rings, most recent and slowest, that back ``GET /v1/debug/tracez``;
* the request metrics of ``/v1/metrics``: ``serve.requests.total``,
  ``serve.<endpoint>.requests.total``, ``serve.responses.<code>.total``,
  the ``serve.<endpoint>.latency_ms`` histogram (the whole request
  span, parse and response write included) and the
  ``serve.phase.<name>_ms`` histograms.
"""

from __future__ import annotations

import json
from collections import deque

from ..obs import metrics
from ..obs.metrics import LATENCY_BUCKETS_MS

__all__ = [
    "ACCESS_LOG_SCHEMA",
    "ACCESS_LOG_SCHEMA_VERSION",
    "RequestTelemetry",
]

#: Bumped whenever the access-record layout changes incompatibly.
ACCESS_LOG_SCHEMA_VERSION = 1

#: The access-record contract.  ``docs/accesslog.schema.json`` is the
#: checked-in copy of exactly this object; tests assert no drift.
ACCESS_LOG_SCHEMA: dict = {
    "type": "object",
    "required": [
        "schema", "ts", "trace_id", "method", "path", "endpoint",
        "status", "dur_ms", "bytes_in", "bytes_out", "phases",
    ],
    "additionalProperties": False,
    "properties": {
        "schema": {"type": "integer"},
        "ts": {"type": "number"},
        "trace_id": {"type": "string"},
        "method": {"type": "string"},
        "path": {"type": "string"},
        "endpoint": {"type": "string"},
        "status": {"type": "integer"},
        "dur_ms": {"type": "number"},
        "bytes_in": {"type": "integer"},
        "bytes_out": {"type": "integer"},
        "phases": {
            "type": "object",
            "additionalProperties": {"type": "number"},
        },
    },
}


class RequestTelemetry:
    """The daemon's request sink: metrics, rings for debug, JSONL for disk.

    One instance per :class:`~repro.serve.server.App`.  All methods run
    on the event loop (single-threaded), so plain containers suffice.
    """

    def __init__(self, access_log_path: str | None = None, *,
                 recent: int = 64, slowest: int = 16):
        self._recent: deque[dict] = deque(maxlen=recent)
        self._slowest: list[dict] = []
        self._slowest_cap = slowest
        self._path = access_log_path
        self._handle = None
        self.records_total = 0

    def open(self) -> None:
        """Open the access-log file (fail fast on an unwritable path)."""
        if self._path is not None and self._handle is None:
            self._handle = open(self._path, "w", encoding="utf-8", buffering=1)

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None

    def record(self, span) -> None:
        """Account one closed ``serve.request`` span: metrics, rings, JSONL line.

        A request whose client hung up before any answer existed
        (status 0) is logged but not counted.
        """
        attrs = span.attrs
        endpoint = attrs.get("endpoint", "unrouted")
        status = attrs.get("status", 0)
        dur_ms = span.dur_s * 1000.0
        phases = {
            name.removeprefix("serve."): dur_s * 1000.0
            for name, dur_s in span.child_tally.items()
        }
        entry = {
            "schema": ACCESS_LOG_SCHEMA_VERSION,
            "ts": span.start_ts,
            "trace_id": attrs["trace_id"],
            "method": attrs.get("method", "?"),
            "path": attrs.get("path", "?"),
            "endpoint": endpoint,
            "status": status,
            "dur_ms": dur_ms,
            "bytes_in": attrs.get("bytes_in", 0),
            "bytes_out": attrs.get("bytes_out", 0),
            "phases": phases,
        }
        if status:
            metrics.counter("serve.requests.total").inc()
            metrics.counter(f"serve.{endpoint}.requests.total").inc()
            metrics.counter(f"serve.responses.{status}.total").inc()
            metrics.histogram(
                f"serve.{endpoint}.latency_ms", buckets=LATENCY_BUCKETS_MS
            ).observe(dur_ms)
            for name, ms in phases.items():
                metrics.histogram(
                    f"serve.phase.{name}_ms", buckets=LATENCY_BUCKETS_MS
                ).observe(ms)
        self.records_total += 1
        self._recent.append(entry)
        self._slowest.append(entry)
        if len(self._slowest) > self._slowest_cap:
            self._slowest.sort(key=lambda r: r["dur_ms"], reverse=True)
            del self._slowest[self._slowest_cap:]
        if self._handle is not None:
            try:
                self._handle.write(
                    json.dumps(entry, separators=(",", ":"), default=str) + "\n"
                )
            except (OSError, TypeError, ValueError):  # pragma: no cover - sink trouble
                pass

    def recent(self) -> list[dict]:
        """Most recent requests, newest last."""
        return list(self._recent)

    def slowest(self) -> list[dict]:
        """Slowest requests seen so far, slowest first."""
        return sorted(self._slowest, key=lambda r: r["dur_ms"], reverse=True)[
            : self._slowest_cap
        ]
