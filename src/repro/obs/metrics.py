"""Process-wide metrics registry: counters, gauges, histograms.

Collection is always on — a counter bump is two attribute loads and an
add, cheap enough that no instrumentation site needs gating — and the
registry is a process-global singleton (``from repro.obs import
metrics``).  Pool workers ship per-task :meth:`snapshot` deltas back to
the parent, which :meth:`merge`\\ s them, so a ``workers=4`` run reports
the same totals as the serial run.

Merge semantics: counters and histogram counts/sums **add**; gauges take
the **max** (every gauge in this codebase is a peak — name gauges
accordingly); histogram ``min``/``max`` take the min/max.

Two dump formats share one :meth:`snapshot` layout (stable keys, schema
versioned, validated in CI against ``docs/metrics.schema.json``):
:meth:`to_json`/:meth:`dump` for machines and :meth:`to_text` for a
Prometheus-style plain-text exposition.
"""

from __future__ import annotations

import json
import os
import sys
from bisect import bisect_left

try:  # POSIX only; Windows degrades to "no RSS numbers".
    import resource
except ImportError:  # pragma: no cover - non-POSIX
    resource = None  # type: ignore[assignment]

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metrics",
    "rss_peak_bytes",
    "sample_process_stats",
    "SNAPSHOT_SCHEMA_VERSION",
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS_MS",
]

#: Bumped whenever the snapshot layout changes; checked by the CI validator.
SNAPSHOT_SCHEMA_VERSION = 1

#: Decade buckets: sizes in this codebase (batch rows, artifact bytes)
#: span seven orders of magnitude, so powers of ten read naturally.
DEFAULT_BUCKETS = (
    1.0,
    10.0,
    100.0,
    1_000.0,
    10_000.0,
    100_000.0,
    1_000_000.0,
    10_000_000.0,
)

#: Request-latency buckets (milliseconds) for the serving path: sub-ms
#: cache hits through multi-second what-if re-propagations.
LATENCY_BUCKETS_MS = (
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1_000.0,
    2_500.0,
    5_000.0,
    10_000.0,
)


class Counter:
    """Monotonic count (events, bytes).  ``inc`` only."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value: int | float = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount


class Gauge:
    """A level.  Merged across processes by max, so use it for peaks."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def set_max(self, value: float) -> None:
        if value > self.value:
            self.value = float(value)


class Histogram:
    """Fixed-bucket distribution with count/sum/min/max.

    ``buckets`` are upper bounds (``value <= bound``); one overflow
    bucket (``+Inf``) catches the rest.  Bucket counts in snapshots are
    per-bucket (non-cumulative); the text exposition renders them
    cumulatively, Prometheus-style.
    """

    __slots__ = ("name", "help", "buckets", "counts", "count", "total", "vmin", "vmax")

    def __init__(self, name: str, help: str = "", buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(float(b) for b in buckets))
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin: float | None = None
        self.vmax: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value
        self.counts[bisect_left(self.buckets, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


def _bucket_key(bound: float) -> str:
    return "+Inf" if bound == float("inf") else str(bound)


class MetricsRegistry:
    """Get-or-create registry of named metrics (one per process)."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- registration ------------------------------------------------------
    def counter(self, name: str, help: str = "") -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name, help)
        return metric

    def gauge(self, name: str, help: str = "") -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name, help)
        return metric

    def histogram(
        self, name: str, help: str = "", buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name, help, buckets)
        return metric

    def reset(self) -> None:
        """Drop every metric (the CLI resets per invocation)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    # -- snapshots ---------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-data view with stable keys (the dump/merge interchange)."""
        return {
            "schema": SNAPSHOT_SCHEMA_VERSION,
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: {
                    "count": h.count,
                    "sum": h.total,
                    "min": h.vmin,
                    "max": h.vmax,
                    "buckets": {
                        _bucket_key(bound): n
                        for bound, n in zip((*h.buckets, float("inf")), h.counts)
                    },
                }
                for name, h in sorted(self._histograms.items())
            },
        }

    @staticmethod
    def diff(after: dict, before: dict) -> dict:
        """``after - before`` for two snapshots of the *same* registry.

        Counters and histogram counts/sums subtract exactly; histogram
        extrema carry ``after``'s cumulative values, which stays correct
        under the max/min merge rules.  Gauges carry only those whose value
        changed in the interval: a forked worker's inherited levels (say,
        ``serve.breaker.state`` from while the breaker was open) must not
        re-raise the parent's.
        """
        gauges_before = before.get("gauges", {})
        counters = {
            name: value - before.get("counters", {}).get(name, 0)
            for name, value in after.get("counters", {}).items()
        }
        histograms = {}
        for name, h_after in after.get("histograms", {}).items():
            h_before = before.get("histograms", {}).get(name)
            if h_before is None:
                histograms[name] = h_after
                continue
            histograms[name] = {
                "count": h_after["count"] - h_before["count"],
                "sum": h_after["sum"] - h_before["sum"],
                "min": h_after["min"],
                "max": h_after["max"],
                "buckets": {
                    key: n - h_before["buckets"].get(key, 0)
                    for key, n in h_after["buckets"].items()
                },
            }
        return {
            "schema": after.get("schema", SNAPSHOT_SCHEMA_VERSION),
            "counters": counters,
            "gauges": {
                name: value
                for name, value in after.get("gauges", {}).items()
                if gauges_before.get(name) != value
            },
            "histograms": histograms,
        }

    def merge(self, snapshot: dict) -> None:
        """Fold a snapshot (typically a worker's delta) into this registry."""
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set_max(value)
        for name, data in snapshot.get("histograms", {}).items():
            bounds = tuple(
                sorted(float(key) for key in data.get("buckets", {}) if key != "+Inf")
            )
            histogram = self.histogram(name, buckets=bounds or DEFAULT_BUCKETS)
            if histogram.buckets != bounds and bounds:
                continue  # incompatible boundaries: refuse rather than mis-bin
            histogram.count += data.get("count", 0)
            histogram.total += data.get("sum", 0.0)
            for vname, pick in (("vmin", min), ("vmax", max)):
                incoming = data.get("min" if vname == "vmin" else "max")
                if incoming is not None:
                    current = getattr(histogram, vname)
                    setattr(
                        histogram,
                        vname,
                        incoming if current is None else pick(current, incoming),
                    )
            for i, bound in enumerate((*histogram.buckets, float("inf"))):
                histogram.counts[i] += data.get("buckets", {}).get(_bucket_key(bound), 0)

    # -- dumps -------------------------------------------------------------
    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def dump(self, path: str | os.PathLike) -> None:
        """Write the snapshot as JSON (the CLI's ``--metrics FILE.json``)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    def to_text(self) -> str:
        """Prometheus-style plain-text exposition of every metric."""
        lines: list[str] = []

        def expo(name: str) -> str:
            return "repro_" + name.replace(".", "_").replace("-", "_")

        for name, c in sorted(self._counters.items()):
            if c.help:
                lines.append(f"# HELP {expo(name)} {c.help}")
            lines.append(f"# TYPE {expo(name)} counter")
            lines.append(f"{expo(name)} {c.value}")
        for name, g in sorted(self._gauges.items()):
            if g.help:
                lines.append(f"# HELP {expo(name)} {g.help}")
            lines.append(f"# TYPE {expo(name)} gauge")
            lines.append(f"{expo(name)} {g.value}")
        for name, h in sorted(self._histograms.items()):
            if h.help:
                lines.append(f"# HELP {expo(name)} {h.help}")
            lines.append(f"# TYPE {expo(name)} histogram")
            cumulative = 0
            for bound, n in zip((*h.buckets, float("inf")), h.counts):
                cumulative += n
                lines.append(f'{expo(name)}_bucket{{le="{_bucket_key(bound)}"}} {cumulative}')
            lines.append(f"{expo(name)}_sum {h.total}")
            lines.append(f"{expo(name)}_count {h.count}")
        return "\n".join(lines) + ("\n" if lines else "")


def _procfs_rss_bytes() -> int | None:
    """Current resident set size from ``/proc/self/statm`` (Linux only)."""
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            resident_pages = int(handle.read().split()[1])
        return resident_pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return None


def _open_fd_count() -> int | None:
    """How many file descriptors this process holds open."""
    for fd_dir in ("/proc/self/fd", "/dev/fd"):
        try:
            # Minus one: listing the directory itself holds a descriptor.
            return max(0, len(os.listdir(fd_dir)) - 1)
        except OSError:
            continue
    return None


def sample_process_stats() -> dict:
    """One instantaneous resource sample of this process.

    Returns ``{"rss_bytes", "rss_is_peak", "open_fds"}`` — procfs where
    available (Linux: current RSS, live fd count), degrading gracefully
    elsewhere: on non-Linux POSIX the RSS falls back to the
    :func:`rss_peak_bytes` high-water mark (flagged via ``rss_is_peak``)
    and fd counting uses ``/dev/fd``; anything unobtainable is ``None``.
    """
    rss = _procfs_rss_bytes()
    rss_is_peak = False
    if rss is None:
        rss = rss_peak_bytes()
        rss_is_peak = rss is not None
    return {
        "rss_bytes": rss,
        "rss_is_peak": rss_is_peak,
        "open_fds": _open_fd_count(),
    }


def rss_peak_bytes() -> int | None:
    """This process's peak resident set size, in bytes (``None`` off-POSIX)."""
    if resource is None:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux but bytes on macOS.
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


#: The process-wide registry every instrumentation site goes through.
metrics = MetricsRegistry()
