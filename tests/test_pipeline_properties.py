"""Property-based tests on the DITL pipeline's accounting invariants.

Hypothesis generates arbitrary raw captures; preprocessing and joining
must conserve counts exactly, no matter how weird the input mix.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.ditl import DitlCapture, LetterCapture, QueryRow, QueryRows, preprocess
from repro.net import str_to_ip

_PUBLIC_BASE = str_to_ip("11.0.0.0")
_PRIVATE_BASE = str_to_ip("10.0.0.0")

query_rows = st.builds(
    QueryRow,
    source_ip=st.one_of(
        st.integers(min_value=_PUBLIC_BASE, max_value=_PUBLIC_BASE + 2**16 - 1),
        st.integers(min_value=_PRIVATE_BASE, max_value=_PRIVATE_BASE + 2**16 - 1),
    ),
    site_id=st.integers(min_value=0, max_value=5),
    category=st.sampled_from(["valid", "invalid", "ptr"]),
    queries=st.integers(min_value=0, max_value=10_000),
    ipv6=st.booleans(),
)

captures = st.builds(
    lambda rows_by_letter: DitlCapture(
        year=2018,
        duration_days=2.0,
        letters={
            letter: LetterCapture(letter=letter, rows=QueryRows.from_rows(rows))
            for letter, rows in rows_by_letter.items()
        },
    ),
    st.dictionaries(
        st.sampled_from(["A", "B", "K"]),
        st.lists(query_rows, max_size=40),
        min_size=1,
        max_size=3,
    ),
)


class TestPreprocessInvariants:
    @given(captures)
    def test_drop_accounting_is_exact(self, capture):
        stats = preprocess(capture).stats
        assert stats.total_queries == (
            stats.dropped_ipv6
            + stats.dropped_private
            + stats.invalid_queries
            + stats.ptr_queries
            + stats.valid_queries
        )
        assert stats.total_queries == sum(
            row.queries for letter in capture.letters.values() for row in letter.rows
        )

    @given(captures)
    def test_site_maps_partition_slash24_volumes(self, capture):
        filtered = preprocess(capture)
        for volumes in filtered.per_letter.values():
            for slash24, total in volumes.valid_by_slash24.items():
                site_sum = sum(volumes.site_valid_by_slash24[slash24].values())
                assert site_sum == total

    @given(captures)
    def test_ip_maps_aggregate_exactly(self, capture):
        filtered = preprocess(capture)
        for volumes in filtered.per_letter.values():
            rebuilt: dict[int, int] = {}
            for ip, site_map in volumes.site_by_ip.items():
                rebuilt[ip >> 8] = rebuilt.get(ip >> 8, 0) + sum(site_map.values())
            assert rebuilt == volumes.valid_by_slash24

    @given(captures)
    def test_all_volume_dominates_valid(self, capture):
        filtered = preprocess(capture)
        for volumes in filtered.per_letter.values():
            for slash24, valid in volumes.valid_by_slash24.items():
                assert volumes.all_by_slash24.get(slash24, 0) >= valid

    @given(captures)
    def test_no_private_or_v6_survives(self, capture):
        filtered = preprocess(capture)
        for volumes in filtered.per_letter.values():
            for slash24 in volumes.all_by_slash24:
                assert (slash24 >> 16) != 10  # 10/8 sources are dropped

    @given(captures)
    def test_preprocess_is_pure(self, capture):
        first = preprocess(capture)
        second = preprocess(capture)
        assert first.stats.valid_queries == second.stats.valid_queries
        for letter in first.per_letter:
            assert (
                first.per_letter[letter].valid_by_slash24
                == second.per_letter[letter].valid_by_slash24
            )
