"""Packet-level recursive resolver: caching, letter preference, the bug."""

import numpy as np
import pytest

from repro.dns import (
    DomainUniverse,
    LetterPreference,
    Question,
    QType,
    ResolverConfig,
    RootZone,
    SimulatedRecursive,
    StaticRootLatency,
    TimedQuestion,
)
from repro.geo import make_rng


@pytest.fixture(scope="module")
def zone():
    return RootZone(n_tlds=60, seed=0)


@pytest.fixture(scope="module")
def universe(zone):
    return DomainUniverse(zone, n_domains=150, seed=0)


@pytest.fixture()
def latency():
    return StaticRootLatency({"A": 30.0, "F": 12.0, "B": 160.0})


def make_resolver(zone, universe, latency, **config):
    return SimulatedRecursive(
        zone, universe, latency, config=ResolverConfig(**config), seed=1
    )


class TestStaticRootLatency:
    def test_letters_sorted(self, latency):
        assert latency.letters == ("A", "B", "F")

    def test_sample_jitters_around_base(self, latency):
        rng = make_rng(0, "lat")
        samples = [latency.sample_rtt_ms("B", rng) for _ in range(300)]
        assert np.median(samples) == pytest.approx(160.0, rel=0.1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            StaticRootLatency({})


class TestLetterPreference:
    def test_prefers_fast_letters(self):
        pref = LetterPreference(("A", "B", "F"))
        for _ in range(50):
            pref.observe("F", 10.0)
            pref.observe("A", 40.0)
            pref.observe("B", 160.0)
        weights = dict(zip(pref.letters, pref.weights()))
        assert weights["F"] > weights["A"] > weights["B"]

    def test_exploration_floor(self):
        pref = LetterPreference(("A", "B", "F"), floor=0.02)
        for _ in range(50):
            pref.observe("F", 1.0)
            pref.observe("B", 500.0)
        weights = dict(zip(pref.letters, pref.weights()))
        assert weights["B"] >= 0.015

    def test_weights_normalised(self):
        pref = LetterPreference(("A", "B"))
        assert pref.weights().sum() == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LetterPreference(())


class TestResolution:
    def test_cached_answer_is_fast_and_quiet(self, zone, universe, latency):
        resolver = make_resolver(zone, universe, latency)
        domain = universe.domains[0]
        first = resolver.handle(TimedQuestion(0.0, Question(domain.name, QType.A)))
        second = resolver.handle(TimedQuestion(1.0, Question(domain.name, QType.A)))
        assert first.upstream
        assert second.cached
        assert second.latency_ms < 1.0

    def test_answer_cache_expires(self, zone, universe, latency):
        from repro.dns.resolver import ANSWER_TTL_S

        resolver = make_resolver(zone, universe, latency)
        domain = universe.domains[0]
        resolver.handle(TimedQuestion(0.0, Question(domain.name, QType.A)))
        later = resolver.handle(
            TimedQuestion(ANSWER_TTL_S + 1.0, Question(domain.name, QType.A))
        )
        assert later.upstream  # must re-resolve, though not via the root

    def test_tld_cached_across_domains(self, zone, universe, latency):
        resolver = make_resolver(zone, universe, latency)
        same_tld = [d for d in universe.domains if d.tld == universe.domains[0].tld][:2]
        if len(same_tld) < 2:
            pytest.skip("universe too small for shared-TLD pair")
        first = resolver.handle(TimedQuestion(0.0, Question(same_tld[0].name, QType.A)))
        second = resolver.handle(TimedQuestion(1.0, Question(same_tld[1].name, QType.A)))
        assert first.root_queries
        assert not second.root_queries

    def test_junk_goes_to_root_and_is_negative_cached(self, zone, universe, latency):
        resolver = make_resolver(zone, universe, latency)
        q = Question("host1.corp", QType.A)
        first = resolver.handle(TimedQuestion(0.0, q))
        assert len(first.root_queries) == 1
        second = resolver.handle(TimedQuestion(10.0, q))
        assert not second.upstream  # negative-cached

    def test_chromium_probe_hits_root(self, zone, universe, latency):
        resolver = make_resolver(zone, universe, latency)
        answer = resolver.handle(TimedQuestion(0.0, Question("qzjxkwpbvt", QType.A)))
        assert len(answer.root_queries) == 1

    def test_ptr_never_touches_root(self, zone, universe, latency):
        resolver = make_resolver(zone, universe, latency)
        answer = resolver.handle(
            TimedQuestion(0.0, Question("4.3.2.11.in-addr.arpa", QType.PTR))
        )
        assert not answer.root_queries
        assert answer.upstream

    def test_answer_expiring_now_is_a_miss(self, zone, universe, latency):
        from repro.dns.resolver import ANSWER_TTL_S

        resolver = make_resolver(zone, universe, latency)
        question = Question(universe.domains[0].name, QType.A)
        resolver.handle(TimedQuestion(0.0, question))
        assert resolver.handle(TimedQuestion(ANSWER_TTL_S - 0.5, question)).cached
        assert resolver.handle(TimedQuestion(ANSWER_TTL_S, question)).upstream

    def test_subdomain_resolves_via_registrable_parent(self, zone, universe, latency):
        resolver = make_resolver(zone, universe, latency)
        domain = universe.domains[3]
        answer = resolver.handle(TimedQuestion(0.0, Question(f"www.{domain.name}", QType.A)))
        auth = [u for u in answer.upstream if u.server.startswith("auth:")]
        assert auth and {u.server[len("auth:"):] for u in auth} <= set(domain.nameservers)
        assert all(u.qname == f"www.{domain.name}" for u in answer.upstream if not u.is_root)
        # The parent's delegation is now cached: the parent itself skips the TLD.
        parent = resolver.handle(TimedQuestion(1.0, Question(domain.name, QType.A)))
        assert parent.upstream
        assert not [u for u in parent.upstream if not u.server.startswith("auth:")]

    def test_unknown_second_level_gets_tld_nxdomain(self, zone, universe, latency):
        from repro.dns.resolver import NEGATIVE_TTL_S

        resolver = make_resolver(zone, universe, latency)
        tld = universe.domains[0].tld
        question = Question(f"nosuchsite.{tld}", QType.A)
        first = resolver.handle(TimedQuestion(0.0, question))
        servers = [u.server for u in first.upstream]
        assert servers == [servers[0], f"tld:{tld}"] and servers[0].startswith("root:")
        assert first.upstream[0].qname == tld and first.upstream[0].qtype is QType.NS
        assert not [s for s in servers if s.startswith("auth:")]
        # Negative-cached for NEGATIVE_TTL_S, then the TLD is asked again.
        assert resolver.handle(TimedQuestion(10.0, question)).cached
        again = resolver.handle(TimedQuestion(NEGATIVE_TTL_S, question))
        assert [u.server for u in again.upstream] == [f"tld:{tld}"]

    def test_letter_preference_shifts_traffic(self, zone, universe, latency):
        resolver = make_resolver(zone, universe, latency)
        rng = make_rng(5, "chromium")
        counts = {"A": 0, "B": 0, "F": 0}
        for i in range(800):
            label = "".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz"), size=10))
            answer = resolver.handle(TimedQuestion(float(i), Question(label, QType.A)))
            for upstream in answer.root_queries:
                counts[upstream.root_letter] += 1
        assert counts["F"] > counts["A"] > counts["B"]

    def test_timeouts_inflate_latency(self, zone, universe, latency):
        always = make_resolver(zone, universe, latency, auth_timeout_prob=1.0)
        domain = universe.domains[0]
        answer = always.handle(TimedQuestion(0.0, Question(domain.name, QType.A)))
        assert answer.latency_ms > 800.0
        assert any(u.timed_out for u in answer.upstream)


class TestRedundantQueryBug:
    def test_bug_emits_root_aaaa_on_timeout(self, zone, universe, latency):
        resolver = make_resolver(
            zone, universe, latency,
            has_redundant_bug=True, auth_timeout_prob=1.0, aaaa_glue_prob=0.0,
        )
        domain = universe.domains[0]
        answer = resolver.handle(TimedQuestion(0.0, Question(domain.name, QType.A)))
        aaaa = [u for u in answer.root_queries if u.qtype is QType.AAAA]
        assert len(aaaa) >= len(domain.nameservers)
        assert {u.qname for u in aaaa} >= set(domain.nameservers)

    def test_bug_disabled_by_default(self, zone, universe, latency):
        resolver = make_resolver(
            zone, universe, latency, auth_timeout_prob=1.0, aaaa_glue_prob=0.0
        )
        domain = universe.domains[0]
        answer = resolver.handle(TimedQuestion(0.0, Question(domain.name, QType.A)))
        assert not [u for u in answer.root_queries if u.qtype is QType.AAAA]

    def test_glued_names_not_reasked(self, zone, universe, latency):
        resolver = make_resolver(
            zone, universe, latency,
            has_redundant_bug=True, auth_timeout_prob=1.0, aaaa_glue_prob=1.0,
        )
        domain = universe.domains[0]
        answer = resolver.handle(TimedQuestion(0.0, Question(domain.name, QType.A)))
        assert not [u for u in answer.root_queries if u.qtype is QType.AAAA]

    def test_bug_queries_repeat_every_timeout(self, zone, universe, latency):
        resolver = make_resolver(
            zone, universe, latency,
            has_redundant_bug=True, auth_timeout_prob=1.0, aaaa_glue_prob=0.0,
        )
        from repro.dns.resolver import ANSWER_TTL_S

        domain = universe.domains[0]
        first = resolver.handle(TimedQuestion(0.0, Question(domain.name, QType.A)))
        second = resolver.handle(
            TimedQuestion(ANSWER_TTL_S + 5.0, Question(domain.name, QType.A))
        )
        first_aaaa = [u.qname for u in first.root_queries if u.qtype is QType.AAAA]
        second_aaaa = [u.qname for u in second.root_queries if u.qtype is QType.AAAA]
        assert first_aaaa and set(first_aaaa) == set(second_aaaa)


class TestTrace:
    def test_trace_accounting(self, zone, universe, latency):
        from repro.dns import BrowsingWorkload

        workload = BrowsingWorkload(universe, n_users=3, seed=2)
        resolver = make_resolver(zone, universe, latency)
        trace = resolver.run(workload.generate(days=0.3))
        assert len(trace) > 0
        assert 0.0 <= trace.root_cache_miss_rate < 1.0
        assert len(trace.client_latencies_ms()) == len(trace)
        assert len(trace.root_latencies_ms()) == len(trace)
        assert trace.duration_days() <= 0.31
