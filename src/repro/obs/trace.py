"""Hierarchical span tracing: contextvar-scoped, fork-safe, near-free when off.

A :class:`Span` is one timed frame of work (``with trace.span("bgp.propagate",
origin=64512):``).  Spans nest through a :mod:`contextvars` variable, so every
span knows its parent without any explicit threading — including across
threads, where each thread sees its own stack.  Two numbers come out of every
frame:

* ``dur_s`` — total wall time of the frame;
* ``self_s`` — *exclusive* wall time: the total minus whatever child frames
  accounted for.  Summing ``self_s`` over a whole trace telescopes exactly to
  the root span's duration, which is what lets
  :class:`~repro.engine.report.RunReport` tables add up to true wall time.

Design rules:

* **Always-on timing, opt-in emission.**  Spans measure whether or not a sink
  is configured — the engine derives its ``RunReport`` from these frames even
  with tracing off — but a JSONL record is written only when the tracer is
  enabled, so the disabled cost is two clock reads, one contextvar swap, and
  one short string per span.  All instrumentation sites are coarse (stages,
  experiments, whole-population batches), never per-client.
* **Fork safety by sharding.**  Each process appends to its own
  ``spans-<pid>.jsonl`` shard inside the tracer's shard directory: a forked
  pool worker notices the pid change on its first emit and reopens its own
  shard, so no two processes ever interleave writes in one file.  The engine
  merges the shards into one time-ordered trace when the run joins (see
  :func:`merge_shards` / :meth:`Tracer.capture`).
* **Cross-process parentage.**  A worker re-roots its spans under the engine's
  run span via :meth:`Tracer.adopt`; the wall time a worker's top-level span
  covers is attributed back to the real run span by the engine when the pool
  joins, so exclusive times keep telescoping even though the worker's parent
  object lives in another process.  (A span whose children ran concurrently
  can therefore report *negative* ``self_s`` — that is overlap, not error.)
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path

__all__ = [
    "Span",
    "Tracer",
    "trace",
    "merge_shards",
    "load_trace",
    "set_trace_id",
    "current_trace_id",
]

#: The innermost open span of the current context (thread / task / process).
_CURRENT: ContextVar["Span | _RemoteParent | None"] = ContextVar(
    "repro_obs_current_span", default=None
)

#: The id of the request (or other unit of work) the current context is
#: serving — what ties spans, structured log lines, and access-log
#: records together.  Set by the serve daemon per request; read by the
#: ``--log-json`` formatter and anyone emitting correlated telemetry.
_TRACE_ID: ContextVar[str | None] = ContextVar("repro_obs_trace_id", default=None)


def set_trace_id(trace_id: str | None):
    """Bind a trace/request id to the current context; returns a reset token."""
    return _TRACE_ID.set(trace_id)


def current_trace_id() -> str | None:
    """The trace/request id bound to the current context, if any."""
    return _TRACE_ID.get()

_SHARD_PREFIX = "spans-"


class _RemoteParent:
    """Stands in for a span that lives in another process.

    Pool workers re-root under the engine's run span: records they emit
    carry the remote span id as ``parent``, while the child time they
    accumulate locally is discarded — the engine attributes each worker
    task's wall time to the real run span when the pool joins, so no
    duration is counted twice.
    """

    __slots__ = ("span_id", "child_s", "child_tally")

    def __init__(self, span_id: str | None):
        self.span_id = span_id
        self.child_s = 0.0
        self.child_tally = None


class Span:
    """One timed frame of work; use as a context manager.

    Attributes set via :meth:`set` (or the ``span(...)`` kwargs) land in
    the record's ``attrs`` object.  ``dur_s``/``self_s`` are valid after
    ``__exit__``, as is ``child_tally`` — ``None`` unless the span opted
    in with :meth:`tally_children`.
    """

    __slots__ = (
        "name",
        "attrs",
        "span_id",
        "parent",
        "start_ts",
        "dur_s",
        "child_s",
        "child_tally",
        "_start_pc",
        "_token",
        "_tracer",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = ""
        self.parent: Span | _RemoteParent | None = None
        self.start_ts = 0.0
        self.dur_s = 0.0
        self.child_s = 0.0
        self.child_tally: dict[str, float] | None = None
        self._start_pc = 0.0
        self._token = None

    @property
    def self_s(self) -> float:
        """Exclusive duration: total minus the time children accounted for.

        Negative when children ran concurrently in worker processes (their
        wall time overlaps this frame's); summing ``self_s`` over a whole
        trace still telescopes exactly to the root span's duration.
        """
        return self.dur_s - self.child_s

    @property
    def parent_id(self) -> str | None:
        return self.parent.span_id if self.parent is not None else None

    def set(self, **attrs) -> "Span":
        """Attach attributes to the span (merged into any passed at open)."""
        self.attrs.update(attrs)
        return self

    def tally_children(self) -> "Span":
        """Opt in: sum direct children's ``dur_s`` by name (not grandchildren)."""
        self.child_tally = {}
        return self

    def __enter__(self) -> "Span":
        tracer = self._tracer
        tracer._seq += 1
        self.span_id = f"{os.getpid()}-{tracer._seq}"
        self.parent = _CURRENT.get()
        self._token = _CURRENT.set(self)
        self.start_ts = time.time()
        self._start_pc = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.dur_s = time.perf_counter() - self._start_pc
        _CURRENT.reset(self._token)
        parent = self.parent
        if parent is not None:
            parent.child_s += self.dur_s
            tally = parent.child_tally
            if tally is not None:
                tally[self.name] = tally.get(self.name, 0.0) + self.dur_s
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        if self._tracer._enabled:
            self._tracer._emit(self)
        return False


class Tracer:
    """Process-wide span factory and per-process JSONL shard writer."""

    def __init__(self):
        self._enabled = False
        self._shard_dir: Path | None = None
        self._handle = None
        self._handle_pid: int | None = None
        self._seq = 0

    @property
    def enabled(self) -> bool:
        return self._enabled

    @property
    def shard_dir(self) -> Path | None:
        """Where this tracer's per-process shards go (``None`` when off)."""
        return self._shard_dir

    def span(self, name: str, **attrs) -> Span:
        """Open a frame: ``with trace.span("stage.internet", scale="small"):``."""
        return Span(self, name, attrs)

    def current_span_id(self) -> str | None:
        """Id of the innermost open span in this context, if any."""
        current = _CURRENT.get()
        return current.span_id if current is not None else None

    # -- lifecycle ---------------------------------------------------------
    def start(self, shard_dir: str | os.PathLike) -> None:
        """Begin emitting: each process shards into ``shard_dir``."""
        self._shard_dir = Path(shard_dir)
        self._shard_dir.mkdir(parents=True, exist_ok=True)
        self._enabled = True

    def stop(self) -> None:
        """Stop emitting and close this process's shard."""
        self._close()
        self._enabled = False
        self._shard_dir = None

    def adopt(self, shard_dir: str | os.PathLike | None, parent_id: str | None) -> None:
        """Configure a pool worker: shard into ``shard_dir``, re-rooted under ``parent_id``.

        Correct under both start methods: with ``fork`` the tracer state is
        inherited and only the shard handle needs replacing (the pid check
        in :meth:`_emit` would do that anyway); with ``spawn`` the state is
        rebuilt from scratch.  Either way the worker's context is re-rooted
        so its spans carry the engine run span as their parent.
        """
        self._close()
        if shard_dir is None:
            self._enabled = False
            self._shard_dir = None
        else:
            self.start(shard_dir)
        _CURRENT.set(_RemoteParent(parent_id))

    def reroot(self, parent_id: str | None) -> None:
        """Re-root this context under a remote parent without touching shards.

        The cheap per-task sibling of :meth:`adopt`: a long-lived serving
        worker adopts its shard directory once (or inherits it across
        ``fork``) and then re-roots for every request it executes, so each
        task's spans carry that request's parent-side span as their
        parent.  Costs one contextvar set.
        """
        _CURRENT.set(_RemoteParent(parent_id))

    @contextmanager
    def capture(self, out_path: str | os.PathLike, name: str = "trace", **attrs):
        """Trace a block into one merged JSONL file at ``out_path``.

        Opens a root span around the block (so every record in the file has
        an ancestor and exclusive times telescope to total wall time),
        shards per process while the block runs, then merges the shards —
        ordered by start time — into ``out_path`` and removes them.
        """
        # Fail fast on an unwritable destination before hours of compute.
        with open(out_path, "w", encoding="utf-8"):
            pass
        shard_dir = tempfile.mkdtemp(prefix="repro-trace-")
        self.start(shard_dir)
        try:
            with self.span(name, **attrs):
                yield self
        finally:
            self.stop()
            try:
                merge_shards(shard_dir, out_path)
            finally:
                shutil.rmtree(shard_dir, ignore_errors=True)

    # -- emission ----------------------------------------------------------
    def _close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None
            self._handle_pid = None

    def _emit(self, span: Span) -> None:
        pid = os.getpid()
        handle = self._handle
        if handle is None or self._handle_pid != pid:
            # First emit in this process (or first after a fork): open a
            # shard of our own.  The handle a fork inherited belongs to the
            # parent's shard; closing our copy cannot disturb the parent.
            if self._shard_dir is None:
                return
            self._close()
            try:
                handle = open(
                    self._shard_dir / f"{_SHARD_PREFIX}{pid}.jsonl",
                    "a",
                    encoding="utf-8",
                    buffering=1,  # line-buffered: every record is durable at once
                )
            except OSError:
                self._enabled = False
                return
            self._handle = handle
            self._handle_pid = pid
        record = {
            "name": span.name,
            "id": span.span_id,
            "parent": span.parent_id,
            "pid": pid,
            "ts": span.start_ts,
            "dur_s": span.dur_s,
            "self_s": span.self_s,
            "attrs": span.attrs,
        }
        try:
            handle.write(json.dumps(record, separators=(",", ":"), default=str) + "\n")
        except (OSError, TypeError, ValueError):  # pragma: no cover - sink trouble
            pass


def _read_jsonl(path: str | os.PathLike) -> list[dict]:
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # torn tail write from a killed process
    return records


def _order_key(record: dict) -> tuple:
    """Sort by start time; ties break by (pid, seq) so a parent that started
    in the same clock tick as its child still precedes it."""
    ts = record.get("ts") or 0.0
    try:
        pid_s, _, seq_s = str(record.get("id", "")).partition("-")
        return (float(ts), int(pid_s), int(seq_s))
    except (TypeError, ValueError):
        return (float(ts), 0, 0)


def merge_shards(
    shard_dir: str | os.PathLike, out_path: str | os.PathLike | None = None
) -> list[dict]:
    """Fold every per-process shard under ``shard_dir`` into one ordered trace.

    Returns the merged records (parents before children); when ``out_path``
    is given, also writes them there as JSONL, one record per line.
    """
    records: list[dict] = []
    for path in sorted(Path(shard_dir).glob(f"{_SHARD_PREFIX}*.jsonl")):
        records.extend(_read_jsonl(path))
    records.sort(key=_order_key)
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, separators=(",", ":"), default=str) + "\n")
    return records


def load_trace(path: str | os.PathLike) -> list[dict]:
    """Read a merged trace JSONL file back into a list of span records."""
    return _read_jsonl(path)


#: The process-wide tracer every instrumentation site goes through.
trace = Tracer()
