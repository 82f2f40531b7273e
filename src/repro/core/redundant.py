"""Redundant root-query analysis (Appendix E, Table 5).

A root query is *redundant* when the same record was requested from the
roots less than one TTL earlier.  At the instrumented resolver, ~80% of
root queries are redundant and follow one pattern: an authoritative
nameserver fails to answer, and the resolver — instead of asking the
(cached) TLD — asks the *root* for the AAAA records of every nameserver
it lacks glue for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..dns.records import QTYPES, QType
from ..dns.trace import ROOT, DnsTrace

__all__ = ["RedundancyStats", "Table5Episode", "analyze_redundancy", "find_bug_episode"]


@dataclass(slots=True)
class RedundancyStats:
    """Counts of redundant root queries and the bug-pattern share."""

    total_root_queries: int = 0
    redundant: int = 0
    redundant_matching_bug_pattern: int = 0
    redundant_aaaa: int = 0

    @property
    def fraction_redundant(self) -> float:
        return self.redundant / self.total_root_queries if self.total_root_queries else 0.0

    @property
    def fraction_bug_pattern_of_redundant(self) -> float:
        return (
            self.redundant_matching_bug_pattern / self.redundant if self.redundant else 0.0
        )

    @property
    def fraction_aaaa_of_redundant(self) -> float:
        return self.redundant_aaaa / self.redundant if self.redundant else 0.0


def analyze_redundancy(trace: DnsTrace, ttl_s: float = 172_800.0) -> RedundancyStats:
    """Classify every root query in ``trace`` by the 1-TTL rule."""
    root = np.flatnonzero(trace.up_kind == ROOT)
    had_timeout = _had_timeout(trace)[trace.upstream_client()[root]]
    stats = RedundancyStats(total_root_queries=len(root))
    aaaa = QTYPES.index(QType.AAAA)
    last_asked: dict[tuple[int, int], float] = {}
    for t, qname, qtype, timeout in zip(
        trace.up_t[root].tolist(), trace.up_qname[root].tolist(),
        trace.up_qtype[root].tolist(), had_timeout.tolist(),
    ):
        key = (qname, qtype)
        previous = last_asked.get(key)
        last_asked[key] = t
        if previous is None or t - previous >= ttl_s:
            continue
        stats.redundant += 1
        if qtype == aaaa:
            stats.redundant_aaaa += 1
            if timeout:
                stats.redundant_matching_bug_pattern += 1
    return stats


def _had_timeout(trace: DnsTrace) -> np.ndarray:
    """Per client row: did any of its upstream queries time out?"""
    timeouts = trace.upstream_client()[trace.up_timed_out]
    return np.bincount(timeouts, minlength=len(trace)) > 0


@dataclass(slots=True)
class Table5Episode:
    """One bug episode rendered as Table 5's step list."""

    client_qname: str
    steps: list[tuple[int, float, str, str, str, str]] = field(default_factory=list)
    # (step, relative timestamp s, from, to, qname, qtype)

    def to_rows(self) -> list[dict[str, str]]:
        return [
            {
                "step": str(step),
                "relative_timestamp_s": f"{t:.5f}",
                "from": source,
                "to": destination,
                "query_name": qname,
                "query_type": qtype,
            }
            for step, t, source, destination, qname, qtype in self.steps
        ]


def find_bug_episode(trace: DnsTrace, min_root_aaaa: int = 2) -> Table5Episode | None:
    """Locate a client query exhibiting the Table-5 pattern."""
    root_aaaa = (trace.up_kind == ROOT) & (trace.up_qtype == QTYPES.index(QType.AAAA))
    root_aaaa_counts = np.bincount(trace.upstream_client()[root_aaaa], minlength=len(trace))
    matches = np.flatnonzero(_had_timeout(trace) & (root_aaaa_counts >= min_root_aaaa))
    if not len(matches):
        return None
    client_query = trace[int(matches[0])]
    episode = Table5Episode(client_qname=client_query.qname)
    t0 = client_query.t
    episode.steps.append(
        (1, 0.0, "client", "resolver", client_query.qname, client_query.qtype.value)
    )
    for index, upstream in enumerate(client_query.upstream, start=2):
        episode.steps.append(
            (
                index,
                max(0.0, upstream.t - t0),
                "resolver",
                upstream.server,
                upstream.qname,
                upstream.qtype.value,
            )
        )
    return episode
