"""DITL pipeline: capture model, generation, preprocessing, join."""

from itertools import islice

import pytest

from repro.ditl import (
    CATEGORIES,
    DitlCapture,
    LetterCapture,
    QueryRow,
    QueryRows,
    TcpRttRow,
    TcpRttRows,
    join_ditl_cdn,
    volumes_by_asn,
)
from repro.net import str_to_ip


def query_rows(*rows: QueryRow) -> QueryRows:
    return QueryRows.from_rows(rows)


class TestCaptureModel:
    def test_query_row_validation(self):
        with pytest.raises(ValueError, match="unknown category"):
            query_rows(QueryRow(source_ip=1, site_id=0, category="bogus", queries=1))
        with pytest.raises(ValueError, match="unknown category code"):
            QueryRows([1], [0], [len(CATEGORIES)], [1], [False])
        with pytest.raises(ValueError, match="unknown category code"):
            QueryRows([1], [0], [-1], [1], [False])
        with pytest.raises(ValueError, match="negative query count"):
            query_rows(QueryRow(source_ip=1, site_id=0, category="valid", queries=-1))
        with pytest.raises(ValueError, match="unequal length"):
            QueryRows([1, 2], [0, 0], [0, 0], [5], [False, False])
        with pytest.raises(ValueError, match="unequal length"):
            TcpRttRows([1], [0], [10.0, 11.0], [3])

    def test_slash24_property(self):
        row = QueryRow(str_to_ip("11.22.33.44"), 0, "valid", 5)
        assert row.slash24 == str_to_ip("11.22.33.0") >> 8
        assert query_rows(row).slash24.tolist() == [row.slash24]

    def test_rows_round_trip_through_views(self):
        rows = (
            QueryRow(1000, 0, "valid", 10),
            QueryRow(2000, 1, "ptr", 5, ipv6=True),
        )
        table = query_rows(*rows)
        assert len(table) == 2
        assert list(table) == list(rows)
        tcp = TcpRttRows([4, 5], [0, 1], [12.5, 30.0], [11, 2])
        assert list(tcp) == [TcpRttRow(4, 0, 12.5, 11), TcpRttRow(5, 1, 30.0, 2)]

    def test_letter_capture_totals(self):
        capture = LetterCapture(
            letter="X",
            rows=query_rows(QueryRow(1000, 0, "valid", 10), QueryRow(2000, 1, "invalid", 5)),
        )
        assert capture.total_queries == 15
        assert capture.queries_by_category() == {"valid": 10, "invalid": 5, "ptr": 0}
        assert len(capture.distinct_slash24s()) == 2

    def test_empty_capture(self):
        capture = LetterCapture(letter="X")
        assert not capture.rows and not capture.tcp
        assert capture.total_queries == 0
        assert capture.distinct_slash24s() == set()

    def test_event_aggregation(self):
        event = DitlCapture(year=2018, duration_days=2.0)
        rows = query_rows(QueryRow(1000, 0, "valid", 10))
        event.letters["X"] = LetterCapture(letter="X", rows=rows)
        assert event.total_daily_queries == 10
        assert event.letter_names == ["X"]


class TestGeneratedCapture(object):
    def test_all_2018_letters_present(self, scenario):
        assert set(scenario.capture_2018.letters) == set(scenario.letters_2018)

    def test_d_and_l_have_no_tcp(self, scenario):
        capture = scenario.capture_2018
        assert not capture.letters["D"].tcp_ok and not capture.letters["D"].tcp
        assert not capture.letters["L"].tcp_ok and not capture.letters["L"].tcp
        assert capture.letters["F"].tcp_ok and capture.letters["F"].tcp

    def test_category_mix_is_paper_like(self, scenario):
        by_category = scenario.capture_2018.queries_by_category()
        total = sum(by_category.values())
        # junk dominates; PTR is a small slice (§2.1's 31B/51.9B and 2B)
        assert by_category["invalid"] / total > 0.4
        assert 0.0 < by_category["ptr"] / total < 0.1

    def test_forwarders_absent_from_capture(self, scenario):
        captured = scenario.capture_2018.distinct_slash24s()
        for cluster in scenario.recursives:
            if not cluster.captured_in_ditl:
                assert cluster.slash24 not in captured

    def test_fast_letters_attract_more_queries(self, scenario):
        """Recursives favour low-latency letters, so per-capita volume
        toward F (wide, peered) should exceed volume toward B (2 NA
        sites) across the whole capture."""
        capture = scenario.capture_2018
        valid = {}
        for name in ("F", "B"):
            rows = capture.letters[name].rows
            is_valid_v4 = (rows.category == CATEGORIES.index("valid")) & ~rows.ipv6
            valid[name] = int(rows.queries[is_valid_v4].sum())
        assert valid["F"] > valid["B"]

    def test_tcp_samples_reference_known_sites(self, scenario):
        for name, letter_capture in scenario.capture_2018.letters.items():
            deployment = scenario.letters_2018[name]
            site_ids = {s.site_id for s in deployment.sites}
            for row in islice(letter_capture.tcp, 200):
                assert row.site_id in site_ids
                assert row.rtt_ms > 0
                assert row.samples > 0


class TestPreprocess:
    def test_drop_accounting_consistent(self, scenario):
        stats = scenario.filtered_2018.stats
        assert stats.total_queries == (
            stats.dropped_ipv6 + stats.dropped_private
            + stats.invalid_queries + stats.ptr_queries + stats.valid_queries
        )

    def test_fractions_near_targets(self, scenario):
        stats = scenario.filtered_2018.stats
        assert 0.05 < stats.fraction_ipv6 < 0.20
        assert 0.02 < stats.fraction_private < 0.15
        assert 0.40 < stats.fraction_invalid < 0.95

    def test_private_sources_filtered(self, scenario):
        for volumes in scenario.filtered_2018.per_letter.values():
            for slash24 in volumes.valid_by_slash24:
                assert not (slash24 >> 16) == 10  # no 10.0.0.0/8 sources

    def test_all_volume_at_least_valid(self, scenario):
        for volumes in scenario.filtered_2018.per_letter.values():
            for slash24, valid in volumes.valid_by_slash24.items():
                assert volumes.all_by_slash24[slash24] >= valid

    def test_site_maps_sum_to_slash24_volume(self, scenario):
        volumes = scenario.filtered_2018.per_letter["J"]
        for slash24, site_map in volumes.site_valid_by_slash24.items():
            assert sum(site_map.values()) == volumes.valid_by_slash24[slash24]

    def test_ip_maps_aggregate_to_slash24(self, scenario):
        volumes = scenario.filtered_2018.per_letter["K"]
        rebuilt: dict[int, int] = {}
        for ip, site_map in volumes.site_by_ip.items():
            rebuilt[ip >> 8] = rebuilt.get(ip >> 8, 0) + sum(site_map.values())
        assert rebuilt == volumes.valid_by_slash24


class TestJoin:
    def test_joined_rows_have_positive_users(self, scenario):
        assert scenario.joined_2018
        for row in scenario.joined_2018:
            assert row.users > 0
            assert row.daily_valid_queries >= 0

    def test_slash24_join_more_representative_than_ip(self, scenario):
        assert (
            scenario.join_stats_2018.frac_ditl_volume
            > scenario.join_stats_2018_ip.frac_ditl_volume
        )
        assert (
            scenario.join_stats_2018.frac_cdn_users
            > scenario.join_stats_2018_ip.frac_cdn_users
        )

    def test_join_stats_fractions_bounded(self, scenario):
        for stats in (scenario.join_stats_2018, scenario.join_stats_2018_ip):
            for value in (
                stats.frac_ditl_recursives, stats.frac_ditl_volume,
                stats.frac_cdn_recursives, stats.frac_cdn_users,
            ):
                assert 0.0 <= value <= 1.0

    def test_rows_carry_letter_volumes(self, scenario):
        row = max(scenario.joined_2018, key=lambda r: r.daily_valid_queries)
        assert row.valid_by_letter
        assert row.daily_all_queries >= row.daily_valid_queries
        for letter, site_map in row.site_valid_by_letter.items():
            assert sum(site_map.values()) == pytest.approx(
                row.valid_by_letter[letter], rel=1e-6
            )

    def test_geolocation_mostly_accurate(self, scenario):
        truth = {c.slash24: c.region_id for c in scenario.recursives}
        hits = 0
        total = 0
        for row in scenario.joined_2018:
            if row.slash24 in truth:
                total += 1
                hits += row.region_id == truth[row.slash24]
        assert total > 0
        assert hits / total > 0.8

    def test_volumes_by_asn_mapping_fraction(self, scenario):
        volumes, mapped_fraction = volumes_by_asn(scenario.filtered_2018, scenario.mapper)
        assert volumes
        assert 0.9 < mapped_fraction <= 1.0  # paper maps 98.6% of volume

    def test_junk_inclusive_asn_volumes_larger(self, scenario):
        valid, _ = volumes_by_asn(scenario.filtered_2018, scenario.mapper)
        everything, _ = volumes_by_asn(
            scenario.filtered_2018, scenario.mapper, include_junk=True
        )
        assert sum(everything.values()) > sum(valid.values())

    def test_join_requires_both_sides(self, scenario):
        rows, _ = join_ditl_cdn(
            scenario.filtered_2018, scenario.cdn_counts,
            scenario.geolocator, scenario.mapper,
        )
        captured = scenario.capture_2018.distinct_slash24s()
        cdn_keys = set(scenario.cdn_counts.aggregate_slash24())
        for row in rows:
            assert row.key in captured
            assert row.key in cdn_keys
