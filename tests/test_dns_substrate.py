"""DNS substrate: records, zone, cache, workload."""

import numpy as np
import pytest

from repro.dns import (
    DEFAULT_TLD_TTL_S,
    BrowsingWorkload,
    DomainUniverse,
    Question,
    QType,
    RootZone,
)
from repro.geo import make_rng
from tests.dns_oracle import TtlCache


class TestQuestion:
    def test_tld_extraction(self):
        assert Question("www.example.com", QType.A).tld == "com"
        assert Question("example.com.", QType.A).tld == "com"

    def test_single_label(self):
        assert Question("abcdefghij", QType.A).is_single_label
        assert not Question("a.b", QType.A).is_single_label

    def test_root_name_has_empty_tld(self):
        assert Question(".", QType.NS).tld == ""


class TestRootZone:
    def test_size_and_ttl(self):
        zone = RootZone(n_tlds=500, seed=1)
        assert len(zone) == 500
        assert zone.ttl_s == DEFAULT_TLD_TTL_S

    def test_well_known_tlds_first(self):
        zone = RootZone(n_tlds=100, seed=1)
        assert "com" in zone.tlds[:3]
        assert zone.is_valid_tld("com")
        assert not zone.is_valid_tld("local")

    def test_popularity_sums_to_one(self):
        zone = RootZone(n_tlds=300, seed=2)
        assert zone.popularity.sum() == pytest.approx(1.0)

    def test_popularity_is_heavy_tailed(self):
        zone = RootZone(n_tlds=300, seed=2)
        assert zone.popularity.max() > 0.3  # com-class dominance

    def test_ideal_daily_queries(self):
        zone = RootZone(n_tlds=1000, seed=0)
        assert zone.ideal_daily_root_queries() == pytest.approx(500.0)

    def test_needs_at_least_one_tld(self):
        with pytest.raises(ValueError):
            RootZone(n_tlds=0)

    def test_sampling_respects_popularity(self):
        zone = RootZone(n_tlds=50, seed=3)
        rng = make_rng(0, "sample")
        samples = zone.sample_tlds(rng, 5_000)
        top = zone.tlds[int(np.argmax(zone.popularity))]
        assert samples.count(top) / len(samples) > 0.15


class TestTtlCache:
    def test_miss_then_hit(self):
        cache = TtlCache()
        assert not cache.contains("com", now=0.0)
        cache.put("com", now=0.0, ttl_s=10.0)
        assert cache.contains("com", now=5.0)
        assert not cache.contains("com", now=10.0)

    def test_zero_ttl_not_stored(self):
        cache = TtlCache()
        cache.put("x", now=0.0, ttl_s=0.0)
        assert not cache.peek("x", now=0.0)

    def test_hit_miss_accounting(self):
        cache = TtlCache()
        cache.contains("a", 0.0)
        cache.put("a", 0.0, 5.0)
        cache.contains("a", 1.0)
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_peek_does_not_count(self):
        cache = TtlCache()
        cache.peek("a", 0.0)
        assert cache.misses == 0

    def test_capacity_eviction_drops_stalest(self):
        cache = TtlCache(capacity=2)
        cache.put("a", 0.0, 10.0)
        cache.put("b", 0.0, 100.0)
        cache.put("c", 0.0, 50.0)  # evicts "a" (earliest expiry)
        assert not cache.peek("a", 1.0)
        assert cache.peek("b", 1.0) and cache.peek("c", 1.0)

    def test_expire_removes_dead_entries(self):
        cache = TtlCache()
        cache.put("a", 0.0, 1.0)
        cache.put("b", 0.0, 100.0)
        assert cache.expire(now=50.0) == 1
        assert len(cache) == 1

    def test_values_round_trip(self):
        cache = TtlCache()
        cache.put("a", 0.0, 10.0, value=("ns1", "ns2"))
        assert cache.get("a", 5.0) == ("ns1", "ns2")
        assert cache.get("a", 11.0) is None

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TtlCache(capacity=0)


class TestDomainUniverse:
    def test_size(self):
        zone = RootZone(n_tlds=50, seed=0)
        universe = DomainUniverse(zone, n_domains=200, seed=0)
        assert len(universe) == 200

    def test_too_small_rejected(self):
        zone = RootZone(n_tlds=50, seed=0)
        with pytest.raises(ValueError):
            DomainUniverse(zone, n_domains=5)

    def test_domains_have_valid_tlds(self):
        zone = RootZone(n_tlds=50, seed=0)
        universe = DomainUniverse(zone, n_domains=100, seed=0)
        for domain in universe.domains:
            assert zone.is_valid_tld(domain.tld)
            assert domain.name.endswith("." + domain.tld)
            assert 2 <= len(domain.nameservers) <= 6

    def test_nameserver_hosting_is_concentrated(self):
        zone = RootZone(n_tlds=50, seed=0)
        universe = DomainUniverse(zone, n_domains=1_000, seed=0)
        providers = {d.nameservers[0].split(".", 1)[1] for d in universe.domains}
        assert len(providers) < 100  # far fewer providers than domains

    def test_sampling_weighted_by_rank(self):
        zone = RootZone(n_tlds=50, seed=0)
        universe = DomainUniverse(zone, n_domains=500, seed=0)
        rng = make_rng(0, "u-sample")
        names = [universe.sample(rng).name for _ in range(2_000)]
        top_share = names.count(universe.domains[0].name) / len(names)
        assert top_share > 0.01


class TestBrowsingWorkload:
    def _workload(self, **kwargs):
        zone = RootZone(n_tlds=50, seed=0)
        universe = DomainUniverse(zone, n_domains=200, seed=0)
        defaults = dict(n_users=5, seed=0)
        defaults.update(kwargs)
        return BrowsingWorkload(universe, **defaults)

    def test_stream_is_time_ordered(self):
        events = list(self._workload().generate(days=0.5))
        times = [e.t for e in events]
        assert times == sorted(times)

    def test_origins_present(self):
        events = list(self._workload(sessions_per_user_day=20).generate(days=1.0))
        origins = {e.origin for e in events}
        assert {"browse", "chromium"} <= origins

    def test_chromium_probes_are_single_label(self):
        events = self._workload(sessions_per_user_day=30).generate(days=1.0)
        for event in events:
            if event.origin == "chromium":
                assert event.question.is_single_label

    def test_invalid_queries_use_catalogue_tlds(self):
        from repro.dns import INVALID_TLDS

        events = self._workload(invalid_rate_per_user_day=30).generate(days=1.0)
        saw = False
        for event in events:
            if event.origin == "invalid":
                saw = True
                assert event.question.tld in INVALID_TLDS
        assert saw

    def test_ptr_queries_formatted(self):
        events = self._workload(ptr_rate_per_user_day=30).generate(days=1.0)
        saw = False
        for event in events:
            if event.origin == "ptr":
                saw = True
                assert event.question.qname.endswith(".in-addr.arpa")
                assert event.question.qtype is QType.PTR
        assert saw

    def test_volume_scales_with_users(self):
        few = len(list(self._workload(n_users=2).generate(days=1.0)))
        many = len(list(self._workload(n_users=20).generate(days=1.0)))
        assert many > 3 * few

    def test_needs_users(self):
        with pytest.raises(ValueError):
            self._workload(n_users=0)
