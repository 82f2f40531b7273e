"""DITL capture data model.

A capture is the aggregate view a root operator contributes to DITL:
daily query counts per (source IP, anycast site, traffic category) and a
subset of TCP-handshake RTT samples.  We store counts, not packets — the
2018 event saw 51.9 billion queries per day and the paper's entire
analysis operates on aggregates.

Both tables are columnar: :class:`QueryRows` and :class:`TcpRttRows` hold
one numpy array per field.  :class:`QueryRow` and :class:`TcpRttRow` are
the per-row views that iteration builds on demand.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "QueryRow",
    "TcpRttRow",
    "QueryRows",
    "TcpRttRows",
    "LetterCapture",
    "DitlCapture",
    "CATEGORIES",
    "VALID",
    "INVALID",
    "PTR",
]

#: Traffic categories the preprocessing pipeline distinguishes (§2.1):
#: ``valid`` (existing-TLD, user-relevant), ``invalid`` (junk/NXDOMAIN,
#: Chromium probes), ``ptr`` (reverse lookups).  A capture stores the
#: index into this tuple.
CATEGORIES = ("valid", "invalid", "ptr")
VALID, INVALID, PTR = range(len(CATEGORIES))
_CATEGORY_CODE = {name: code for code, name in enumerate(CATEGORIES)}


@dataclass(frozen=True, slots=True)
class QueryRow:
    """Daily query count from one source IP to one site of one letter."""

    source_ip: int
    site_id: int
    category: str
    queries: int
    ipv6: bool = False

    @property
    def slash24(self) -> int:
        return self.source_ip >> 8


@dataclass(frozen=True, slots=True)
class TcpRttRow:
    """Median TCP-handshake RTT samples for one (source /24, site)."""

    slash24: int
    site_id: int
    rtt_ms: float
    samples: int


class _Columns:
    """Equal-length columns named by ``__slots__``, with per-row views."""

    __slots__ = ()

    def _check_lengths(self) -> None:
        lengths = {name: len(getattr(self, name)) for name in self.__slots__}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"columns of unequal length: {lengths}")

    @classmethod
    def concat(cls, tables: Iterable[_Columns]):
        """The rows of ``tables``, one after another."""
        tables = list(tables)
        return cls(*(
            np.concatenate([getattr(table, name) for table in tables])
            for name in cls.__slots__
        ))

    def __len__(self) -> int:
        return len(getattr(self, self.__slots__[0]))

    def __iter__(self) -> Iterator:
        columns = (getattr(self, name).tolist() for name in self.__slots__)
        return (self._view(*values) for values in zip(*columns))


class QueryRows(_Columns):
    """Daily query counts as parallel columns.

    Row ``i`` counts ``queries[i]`` queries of category
    ``CATEGORIES[category[i]]`` from ``source_ip[i]`` to site ``site_id[i]``;
    ``ipv6[i]`` marks a letter's IPv6 share, filed under one IPv4 backend.
    """

    __slots__ = ("source_ip", "site_id", "category", "queries", "ipv6")

    def __init__(self, source_ip=(), site_id=(), category=(), queries=(), ipv6=()):
        self.source_ip = np.asarray(source_ip, dtype=np.uint32)
        self.site_id = np.asarray(site_id, dtype=np.int32)
        self.category = np.asarray(category, dtype=np.int8)
        self.queries = np.asarray(queries, dtype=np.int64)
        self.ipv6 = np.asarray(ipv6, dtype=bool)
        self._check_lengths()
        unknown = (self.category < 0) | (self.category >= len(CATEGORIES))
        if unknown.any():
            raise ValueError(f"unknown category code {int(self.category[unknown][0])}")
        if (self.queries < 0).any():
            raise ValueError("negative query count")

    @classmethod
    def from_rows(cls, rows: Iterable[QueryRow]) -> QueryRows:
        """Columns from :class:`QueryRow` records, in their order."""
        columns = []
        for row in rows:
            if row.category not in _CATEGORY_CODE:
                raise ValueError(f"unknown category {row.category!r}")
            columns.append(
                (row.source_ip, row.site_id, _CATEGORY_CODE[row.category], row.queries, row.ipv6)
            )
        return cls(*zip(*columns))

    @staticmethod
    def _view(source_ip, site_id, category, queries, ipv6) -> QueryRow:
        return QueryRow(source_ip, site_id, CATEGORIES[category], queries, ipv6)

    @property
    def slash24(self) -> np.ndarray:
        return self.source_ip >> 8


class TcpRttRows(_Columns):
    """TCP-handshake RTT samples as parallel columns (see :class:`TcpRttRow`)."""

    __slots__ = ("slash24", "site_id", "rtt_ms", "samples")

    _view = TcpRttRow

    def __init__(self, slash24=(), site_id=(), rtt_ms=(), samples=()):
        self.slash24 = np.asarray(slash24, dtype=np.uint32)
        self.site_id = np.asarray(site_id, dtype=np.int32)
        self.rtt_ms = np.asarray(rtt_ms, dtype=np.float64)
        self.samples = np.asarray(samples, dtype=np.int64)
        self._check_lengths()


@dataclass(slots=True)
class LetterCapture:
    """One letter's contribution to a DITL event."""

    letter: str
    rows: QueryRows = field(default_factory=QueryRows)
    tcp: TcpRttRows = field(default_factory=TcpRttRows)
    #: Whether this letter's pcaps carry usable TCP handshakes (D and L
    #: roots were malformed in 2018).
    tcp_ok: bool = True
    anonymized: bool = False

    @property
    def total_queries(self) -> int:
        return int(self.rows.queries.sum())

    def queries_by_category(self) -> dict[str, int]:
        rows = self.rows
        return {
            name: int(rows.queries[rows.category == code].sum())
            for code, name in enumerate(CATEGORIES)
        }

    def distinct_slash24s(self) -> set[int]:
        return set(np.unique(self.rows.slash24).tolist())


@dataclass(slots=True)
class DitlCapture:
    """A full DITL event: one capture per participating letter."""

    year: int
    duration_days: float
    letters: dict[str, LetterCapture] = field(default_factory=dict)

    def letter(self, name: str) -> LetterCapture:
        return self.letters[name]

    @property
    def letter_names(self) -> list[str]:
        return sorted(self.letters)

    @property
    def total_daily_queries(self) -> float:
        return sum(c.total_queries for c in self.letters.values())

    def distinct_slash24s(self) -> set[int]:
        blocks: set[int] = set()
        for capture in self.letters.values():
            blocks |= capture.distinct_slash24s()
        return blocks

    def queries_by_category(self) -> dict[str, int]:
        totals = dict.fromkeys(CATEGORIES, 0)
        for capture in self.letters.values():
            for category, count in capture.queries_by_category().items():
                totals[category] += count
        return totals
