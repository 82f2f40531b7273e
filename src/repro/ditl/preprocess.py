"""DITL preprocessing (§2.1).

Of the raw capture we drop, in order: IPv6 traffic (no v6 user data),
queries from private/special-purpose sources, then split the remainder
into *valid* (existing-TLD, user-relevant) versus *invalid* (junk) and
*PTR* volumes — the paper discards the latter two for its user-latency
analysis but Appendix B.1 re-adds them to show how much the choice
matters, so we keep both views.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..net import is_private_many
from .capture import INVALID, PTR, VALID, DitlCapture

__all__ = ["PreprocessStats", "LetterVolumes", "FilteredDitl", "preprocess"]


@dataclass(slots=True)
class PreprocessStats:
    """Accounting of what preprocessing dropped (the §2.1 numbers)."""

    total_queries: int = 0
    dropped_ipv6: int = 0
    dropped_private: int = 0
    invalid_queries: int = 0
    ptr_queries: int = 0
    valid_queries: int = 0

    @property
    def fraction_ipv6(self) -> float:
        return self.dropped_ipv6 / self.total_queries if self.total_queries else 0.0

    @property
    def fraction_private(self) -> float:
        return self.dropped_private / self.total_queries if self.total_queries else 0.0

    @property
    def fraction_invalid(self) -> float:
        kept = self.invalid_queries + self.ptr_queries + self.valid_queries
        return self.invalid_queries / kept if kept else 0.0


@dataclass(slots=True)
class LetterVolumes:
    """Per-letter filtered volumes at the granularities the analyses use."""

    letter: str
    tcp_ok: bool = True
    #: valid daily queries per source /24
    valid_by_slash24: dict[int, int] = field(default_factory=dict)
    #: valid+invalid+ptr daily queries per source /24 (Appendix B.1 view)
    all_by_slash24: dict[int, int] = field(default_factory=dict)
    #: valid daily queries per /24 per site (inflation weighting, Eq. 1)
    site_valid_by_slash24: dict[int, dict[int, int]] = field(default_factory=dict)
    #: valid daily queries per source IP per site (Fig. 10's Eq. 3)
    site_by_ip: dict[int, dict[int, int]] = field(default_factory=dict)

    @property
    def total_valid(self) -> int:
        return sum(self.valid_by_slash24.values())


@dataclass(slots=True)
class FilteredDitl:
    """The preprocessed event: per-letter volumes plus drop accounting."""

    year: int
    duration_days: float
    per_letter: dict[str, LetterVolumes] = field(default_factory=dict)
    stats: PreprocessStats = field(default_factory=PreprocessStats)

    @property
    def letter_names(self) -> list[str]:
        return sorted(self.per_letter)

    def daily_valid_by_slash24(self) -> dict[int, float]:
        """Valid queries per day per /24, summed over letters."""
        totals: dict[int, float] = {}
        for volumes in self.per_letter.values():
            for slash24, count in volumes.valid_by_slash24.items():
                totals[slash24] = totals.get(slash24, 0.0) + count / self.duration_days
        return totals

    def daily_all_by_slash24(self) -> dict[int, float]:
        """All (valid+junk+PTR) queries per day per /24 (Appendix B.1)."""
        totals: dict[int, float] = {}
        for volumes in self.per_letter.values():
            for slash24, count in volumes.all_by_slash24.items():
                totals[slash24] = totals.get(slash24, 0.0) + count / self.duration_days
        return totals


def preprocess(capture: DitlCapture) -> FilteredDitl:
    """Run the §2.1 pipeline over a raw capture.

    Each volume dict lists its keys in the order they first occur in the
    capture's rows, as summing row by row would: Fig. 10's point-mass
    control breaks favorite-site ties by that order, and the cross-letter
    float sums add in it.
    """
    result = FilteredDitl(year=capture.year, duration_days=capture.duration_days)
    stats = result.stats
    for name, letter_capture in capture.letters.items():
        rows = letter_capture.rows
        queries = rows.queries
        private = is_private_many(rows.source_ip) & ~rows.ipv6
        kept = ~(rows.ipv6 | private)
        valid = kept & (rows.category == VALID)
        stats.total_queries += int(queries.sum())
        stats.dropped_ipv6 += int(queries[rows.ipv6].sum())
        stats.dropped_private += int(queries[private].sum())
        stats.invalid_queries += int(queries[kept & (rows.category == INVALID)].sum())
        stats.ptr_queries += int(queries[kept & (rows.category == PTR)].sum())
        stats.valid_queries += int(queries[valid].sum())

        slash24 = rows.slash24
        valid_sites, valid_queries = rows.site_id[valid], queries[valid]
        result.per_letter[name] = LetterVolumes(
            letter=name,
            tcp_ok=letter_capture.tcp_ok,
            valid_by_slash24=_sums_by(slash24[valid], valid_queries),
            all_by_slash24=_sums_by(slash24[kept], queries[kept]),
            site_valid_by_slash24=_site_sums_by(slash24[valid], valid_sites, valid_queries),
            site_by_ip=_site_sums_by(rows.source_ip[valid], valid_sites, valid_queries),
        )
    return result


def _first_seen_groups(keys: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct key's first row, in row order, with the key's query sum."""
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    sums = np.zeros(len(first), dtype=np.int64)
    np.add.at(sums, group, queries)
    order = np.argsort(first)
    return first[order], sums[order]


def _sums_by(keys: np.ndarray, queries: np.ndarray) -> dict[int, int]:
    """``{key: summed queries}`` in first-seen key order."""
    first, sums = _first_seen_groups(keys, queries)
    return dict(zip(keys[first].tolist(), sums.tolist()))


def _site_sums_by(
    keys: np.ndarray, site_id: np.ndarray, queries: np.ndarray
) -> dict[int, dict[int, int]]:
    """``{key: {site: summed queries}}``, both levels in first-seen order."""
    pairs = (keys.astype(np.uint64) << 32) | site_id.astype(np.uint32)
    first, sums = _first_seen_groups(pairs, queries)
    nested: dict[int, dict[int, int]] = {}
    for key, site, count in zip(keys[first].tolist(), site_id[first].tolist(), sums.tolist()):
        site_map = nested.get(key)
        if site_map is None:
            site_map = nested[key] = {}
        site_map[site] = count
    return nested
