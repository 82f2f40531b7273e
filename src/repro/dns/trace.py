"""Packet-style DNS trace records.

The local-view experiments (§4.3, Appendix D/E) need per-query events:
what the client asked, which upstream the resolver contacted, and how
long everything took.  :class:`DnsTrace` is the in-memory analogue of the
paper's port-53 packet captures, stored as columns; :class:`ClientQuery`
and :class:`UpstreamQuery` are the per-row views it builds on demand.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .records import QTYPES, QType

__all__ = ["UpstreamQuery", "ClientQuery", "DnsTrace", "SERVER_KINDS", "ROOT", "TLD", "AUTH"]

#: Upstream server kinds, by the code in :attr:`DnsTrace.up_kind`.
SERVER_KINDS = ("root", "tld", "auth")
ROOT, TLD, AUTH = range(len(SERVER_KINDS))


@dataclass(frozen=True, slots=True)
class UpstreamQuery:
    """One query the resolver sent upstream while serving a client."""

    t: float
    server: str          # "root:J", "tld:com", "auth:ns1.example.com"
    qname: str
    qtype: QType
    rtt_ms: float
    timed_out: bool = False

    @property
    def is_root(self) -> bool:
        return self.server.startswith("root:")

    @property
    def root_letter(self) -> str | None:
        return self.server.split(":", 1)[1] if self.is_root else None


@dataclass(frozen=True, slots=True)
class ClientQuery:
    """One client query and everything the resolver did to answer it."""

    t: float
    qname: str
    qtype: QType
    latency_ms: float
    upstream: tuple[UpstreamQuery, ...] = ()

    @property
    def root_queries(self) -> tuple[UpstreamQuery, ...]:
        return tuple(q for q in self.upstream if q.is_root)

    @property
    def root_latency_ms(self) -> float:
        """Root-server wait attributable to this query (0 when cached)."""
        return sum(q.rtt_ms for q in self.root_queries if not q.timed_out)

    @property
    def cached(self) -> bool:
        return not self.upstream


class DnsTrace:
    """An ordered capture of client queries with their upstream fan-out.

    Client row ``i`` asked ``names[qname[i]]`` for ``QTYPES[qtype[i]]`` at
    ``t[i]`` and waited ``latency_ms[i]``.  Its upstream queries are rows
    ``offsets[i]:offsets[i + 1]`` of the ``up_*`` columns, in the order
    the resolver sent them; row ``j`` went to server
    ``SERVER_KINDS[up_kind[j]] + ":" + names[up_server[j]]``.
    ``trace[i]`` and iteration build :class:`ClientQuery` views.

    ``names`` may be the resolver's own append-only name table, shared
    rather than copied, so a one-query trace costs no more than its row.
    """

    __slots__ = (
        "names", "t", "qname", "qtype", "latency_ms", "offsets",
        "up_t", "up_kind", "up_server", "up_qname", "up_qtype", "up_rtt_ms", "up_timed_out",
    )

    def __init__(
        self, names: Sequence[str], *, t, qname, qtype, latency_ms, offsets,
        up_t, up_kind, up_server, up_qname, up_qtype, up_rtt_ms, up_timed_out,
    ):
        self.names = names
        self.t = np.asarray(t, dtype=np.float64)
        self.qname = np.asarray(qname, dtype=np.int32)
        self.qtype = np.asarray(qtype, dtype=np.int8)
        self.latency_ms = np.asarray(latency_ms, dtype=np.float64)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.up_t = np.asarray(up_t, dtype=np.float64)
        self.up_kind = np.asarray(up_kind, dtype=np.int8)
        self.up_server = np.asarray(up_server, dtype=np.int32)
        self.up_qname = np.asarray(up_qname, dtype=np.int32)
        self.up_qtype = np.asarray(up_qtype, dtype=np.int8)
        self.up_rtt_ms = np.asarray(up_rtt_ms, dtype=np.float64)
        self.up_timed_out = np.asarray(up_timed_out, dtype=bool)

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, index: int) -> ClientQuery:
        i = range(len(self))[index]
        lo, hi = self.offsets[i:i + 2].tolist()
        return ClientQuery(
            float(self.t[i]), self.names[self.qname[i]], QTYPES[self.qtype[i]],
            float(self.latency_ms[i]), tuple(self._upstream_views(lo, hi)),
        )

    def __iter__(self) -> Iterator[ClientQuery]:
        return map(self.__getitem__, range(len(self)))

    def _upstream_views(self, lo: int, hi: int) -> list[UpstreamQuery]:
        names = self.names
        columns = (self.up_t, self.up_kind, self.up_server, self.up_qname, self.up_qtype,
                   self.up_rtt_ms, self.up_timed_out)
        return [
            UpstreamQuery(t, f"{SERVER_KINDS[kind]}:{names[server]}", names[qname],
                          QTYPES[qtype], rtt, timed_out)
            for t, kind, server, qname, qtype, rtt, timed_out in zip(
                *(column[lo:hi].tolist() for column in columns)
            )
        ]

    # -- array reductions ----------------------------------------------------
    def upstream_client(self) -> np.ndarray:
        """The client row each upstream row served."""
        return np.repeat(np.arange(len(self)), np.diff(self.offsets))

    def root_counts(self) -> np.ndarray:
        """Root queries per client row."""
        return np.bincount(self.upstream_client()[self.up_kind == ROOT], minlength=len(self))

    @property
    def total_root_queries(self) -> int:
        return int(np.count_nonzero(self.up_kind == ROOT))

    @property
    def root_cache_miss_rate(self) -> float:
        """Root queries as a fraction of client queries (§4.3's metric)."""
        if not len(self):
            return 0.0
        return self.total_root_queries / len(self)

    def client_latencies_ms(self) -> np.ndarray:
        return self.latency_ms

    def root_latencies_ms(self) -> np.ndarray:
        """Per-client-query root latency, zero when no root was consulted.

        Each client's answered root RTTs are summed in send order.
        """
        answered = (self.up_kind == ROOT) & ~self.up_timed_out
        return np.bincount(
            self.upstream_client()[answered], weights=self.up_rtt_ms[answered],
            minlength=len(self),
        )

    def all_upstream(self) -> list[UpstreamQuery]:
        return self._upstream_views(0, len(self.up_t))

    def duration_days(self) -> float:
        if len(self) < 2:
            return 0.0
        return (float(self.t[-1]) - float(self.t[0])) / 86_400.0
