"""Property-based tests (hypothesis) on core data structures/invariants."""

import math

from hypothesis import given, settings, strategies as st

from repro.core import WeightedCdf
from repro.geo import GeoPoint, geographic_rtt_ms, great_circle_km, optimal_rtt_ms
from repro.net import Prefix, ip_to_str, slash24_of, str_to_ip
from repro.web import transfer_rtts
from tests.dns_oracle import TtlCache

latitudes = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)
longitudes = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)
points = st.builds(GeoPoint, latitudes, longitudes)
ips = st.integers(min_value=0, max_value=0xFFFFFFFF)


class TestGeometryProperties:
    @given(points, points)
    def test_distance_symmetric(self, a, b):
        assert math.isclose(a.distance_km(b), b.distance_km(a), abs_tol=1e-6)

    @given(points)
    def test_distance_to_self_zero(self, a):
        assert a.distance_km(a) <= 1e-6

    @given(points, points)
    def test_distance_bounded_by_half_circumference(self, a, b):
        assert 0.0 <= a.distance_km(b) <= math.pi * 6371.0 + 1e-6

    @settings(max_examples=50)
    @given(points, points, points)
    def test_triangle_inequality(self, a, b, c):
        assert a.distance_km(c) <= a.distance_km(b) + b.distance_km(c) + 1e-6

    @given(st.floats(min_value=0.0, max_value=50_000.0, allow_nan=False))
    def test_latency_floors_ordered(self, km):
        # Eq. 2's achievable bound always exceeds Eq. 1's fiber-ideal.
        assert optimal_rtt_ms(km) >= geographic_rtt_ms(km)

    @given(latitudes, longitudes, latitudes, longitudes)
    def test_great_circle_nonnegative(self, lat1, lon1, lat2, lon2):
        assert great_circle_km(lat1, lon1, lat2, lon2) >= 0.0


class TestAddressProperties:
    @given(ips)
    def test_ip_string_round_trip(self, ip):
        assert str_to_ip(ip_to_str(ip)) == ip

    @given(ips)
    def test_slash24_contains_ip(self, ip):
        prefix = Prefix(slash24_of(ip) << 8, 24)
        assert prefix.contains(ip)

    @given(ips, st.integers(min_value=0, max_value=32))
    def test_prefix_contains_its_network(self, ip, length):
        mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF if length else 0
        prefix = Prefix(ip & mask, length)
        assert prefix.contains(prefix.network)
        assert prefix.contains(prefix.nth(prefix.size - 1))

    @given(ips, st.integers(min_value=1, max_value=31))
    def test_prefix_size_times_count_covers_space(self, ip, length):
        mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
        prefix = Prefix(ip & mask, length)
        assert prefix.size * (1 << length) == 1 << 32


class TestCdfProperties:
    values_and_weights = st.lists(
        st.tuples(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
        ),
        min_size=1,
        max_size=200,
    )

    @given(values_and_weights)
    def test_cdf_monotone(self, pairs):
        values, weights = zip(*pairs)
        cdf = WeightedCdf(values, weights)
        previous = -math.inf
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            current = cdf.quantile(q)
            assert current >= previous
            previous = current

    @given(values_and_weights)
    def test_fraction_at_most_bounds(self, pairs):
        values, weights = zip(*pairs)
        cdf = WeightedCdf(values, weights)
        assert cdf.fraction_at_most(min(values) - 1.0) == 0.0
        assert math.isclose(cdf.fraction_at_most(max(values)), 1.0, abs_tol=1e-9)

    @given(values_and_weights, st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_above_complements_at_most(self, pairs, x):
        values, weights = zip(*pairs)
        cdf = WeightedCdf(values, weights)
        assert math.isclose(
            cdf.fraction_at_most(x) + cdf.fraction_above(x), 1.0, abs_tol=1e-9
        )

    @given(values_and_weights, st.floats(min_value=0.1, max_value=100.0))
    def test_scaling_preserves_mass(self, pairs, factor):
        values, weights = zip(*pairs)
        cdf = WeightedCdf(values, weights)
        scaled = cdf.scaled(factor)
        for q in (0.1, 0.5, 0.9):
            assert math.isclose(
                scaled.quantile(q), cdf.quantile(q) * factor, rel_tol=1e-9, abs_tol=1e-9
            )

    @given(values_and_weights)
    def test_median_within_range(self, pairs):
        values, weights = zip(*pairs)
        cdf = WeightedCdf(values, weights)
        assert min(values) <= cdf.median <= max(values)


class TestTtlCacheProperties:
    operations = st.lists(
        st.tuples(
            st.sampled_from(["put", "contains"]),
            st.integers(min_value=0, max_value=20),     # key id
            st.floats(min_value=0.0, max_value=1000.0),  # time delta
            st.floats(min_value=0.1, max_value=500.0),   # ttl
        ),
        max_size=80,
    )

    @given(operations)
    def test_cache_agrees_with_reference_model(self, ops):
        cache = TtlCache()
        reference: dict[str, float] = {}
        now = 0.0
        for op, key_id, delta, ttl in ops:
            now += delta
            key = f"k{key_id}"
            if op == "put":
                cache.put(key, now, ttl)
                reference[key] = now + ttl
            else:
                expected = reference.get(key, -1.0) > now
                assert cache.contains(key, now) == expected

    @given(operations)
    def test_expire_never_drops_fresh_entries(self, ops):
        cache = TtlCache()
        now = 0.0
        fresh: dict[str, float] = {}
        for op, key_id, delta, ttl in ops:
            now += delta
            if op == "put":
                cache.put(f"k{key_id}", now, ttl)
                fresh[f"k{key_id}"] = now + ttl
        cache.expire(now)
        for key, expiry in fresh.items():
            if expiry > now:
                assert cache.peek(key, now)


class TestTcpProperties:
    @given(st.integers(min_value=1, max_value=10**9))
    def test_transfer_rtts_positive_and_logarithmic(self, data):
        rtts = transfer_rtts(data)
        assert rtts >= 1
        assert rtts <= math.ceil(math.log2(max(2, data))) + 1

    @given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=1, max_value=10**9))
    def test_transfer_rtts_monotone(self, a, b):
        small, big = min(a, b), max(a, b)
        assert transfer_rtts(small) <= transfer_rtts(big)

    @given(
        st.integers(min_value=1, max_value=10**8),
        st.integers(min_value=1_000, max_value=100_000),
        st.integers(min_value=1_000, max_value=100_000),
    )
    def test_bigger_window_never_slower(self, data, w1, w2):
        small, big = min(w1, w2), max(w1, w2)
        assert transfer_rtts(data, init_window=big) <= transfer_rtts(data, init_window=small)
