"""Columnar DNS local view vs the object-per-query oracle.

Production (``repro.dns``) and ``tests/dns_oracle.py`` must agree on every
client and upstream column, bit for bit, and leave every random generator
in the same state: the draw order is part of the contract that keeps the
fig12, fig13 and table5 digests fixed.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import analyze_redundancy, find_bug_episode
from repro.dns import (
    QTYPES,
    SERVER_KINDS,
    AuthorMachineExperiment,
    BrowsingWorkload,
    DnsTrace,
    DomainUniverse,
    IsiResolverExperiment,
    LetterPreference,
    Question,
    QType,
    ResolverConfig,
    RootZone,
    SimulatedRecursive,
    StaticRootLatency,
    TimedQuestion,
)
from repro.dns import localview, resolver as resolver_module, workload as workload_module
from repro.dns.resolver import ANSWER_TTL_S, DELEGATION_TTL_S, NEGATIVE_TTL_S
from repro.geo import make_rng
from tests import dns_oracle as oracle

ZONE = RootZone(n_tlds=80, seed=3)
UNIVERSE = DomainUniverse(ZONE, n_domains=300, seed=3)
LETTERS = {"A": 32.0, "B": 160.0, "F": 14.0, "J": 22.0, "K": 35.0}
CONFIGS = {
    "default": {},
    "timeouts": {"auth_timeout_prob": 0.2},
    "no-aaaa-glue": {"aaaa_glue_prob": 0.0},
}


def latency():
    return StaticRootLatency(LETTERS)


def resolvers(seed: int = 0, **config):
    """A production resolver and its oracle twin."""
    return (
        SimulatedRecursive(ZONE, UNIVERSE, latency(), ResolverConfig(**config), seed=seed),
        oracle.SimulatedRecursive(
            ZONE, oracle.ChoiceSampling(UNIVERSE), latency(), oracle.ResolverConfig(**config),
            seed=seed,
        ),
    )


def columns(trace) -> dict[str, list]:
    """Every client and upstream column, decoded to names and enums."""
    if isinstance(trace, DnsTrace):
        names = trace.names
        return {
            "t": trace.t.tolist(),
            "qname": [names[i] for i in trace.qname.tolist()],
            "qtype": [QTYPES[i] for i in trace.qtype.tolist()],
            "latency_ms": trace.latency_ms.tolist(),
            "n_upstream": np.diff(trace.offsets).tolist(),
            "up_t": trace.up_t.tolist(),
            "up_server": [
                f"{SERVER_KINDS[kind]}:{names[server]}"
                for kind, server in zip(trace.up_kind.tolist(), trace.up_server.tolist())
            ],
            "up_qname": [names[i] for i in trace.up_qname.tolist()],
            "up_qtype": [QTYPES[i] for i in trace.up_qtype.tolist()],
            "up_rtt_ms": trace.up_rtt_ms.tolist(),
            "up_timed_out": trace.up_timed_out.tolist(),
        }
    upstream = trace.all_upstream()
    return {
        "t": [q.t for q in trace],
        "qname": [q.qname for q in trace],
        "qtype": [q.qtype for q in trace],
        "latency_ms": [q.latency_ms for q in trace],
        "n_upstream": [len(q.upstream) for q in trace],
        "up_t": [u.t for u in upstream],
        "up_server": [u.server for u in upstream],
        "up_qname": [u.qname for u in upstream],
        "up_qtype": [u.qtype for u in upstream],
        "up_rtt_ms": [u.rtt_ms for u in upstream],
        "up_timed_out": [u.timed_out for u in upstream],
    }


def assert_same_trace(trace, expected) -> None:
    got, want = columns(trace), columns(expected)
    for name in want:
        assert got[name] == want[name], name


def views(trace) -> list:
    return [
        (q.t, q.qname, q.qtype, q.latency_ms, q.root_latency_ms, q.cached,
         [(u.t, u.server, u.qname, u.qtype, u.rtt_ms, u.timed_out, u.root_letter)
          for u in q.upstream])
        for q in trace
    ]


@pytest.fixture()
def generators(monkeypatch):
    """Every generator each side creates, as ``(stream name, generator)``."""
    made: dict[str, list] = {"production": [], "oracle": []}

    def recorder(side):
        def make(seed, stream):
            rng = make_rng(seed, stream)
            made[side].append((stream, rng))
            return rng
        return make

    for module in (workload_module, resolver_module, localview):
        monkeypatch.setattr(module, "make_rng", recorder("production"))
    monkeypatch.setattr(oracle, "make_rng", recorder("oracle"))
    return made


def states(made: list) -> list:
    return [(stream, rng.bit_generator.state) for stream, rng in made]


# -- draw identities -------------------------------------------------------------
def test_universe_sampling_matches_choice():
    ours, theirs = make_rng(1, "u"), make_rng(1, "u")
    choice = oracle.ChoiceSampling(UNIVERSE)
    for size in (1, 2, 7, 30):
        assert UNIVERSE.sample(ours) == choice.sample(theirs)
        assert UNIVERSE.sample_many(ours, size) == choice.sample_many(theirs, size)
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_letter_choice_matches_choice():
    ours, theirs = LetterPreference(tuple(LETTERS)), oracle.LetterPreference(tuple(LETTERS))
    rng_ours, rng_theirs = make_rng(2, "l"), make_rng(2, "l")
    for i in range(200):
        letter = ours.choose(rng_ours)
        assert letter == theirs.choose(rng_theirs)
        ours.observe(letter, 10.0 + i)
        theirs.observe(letter, 10.0 + i)
    assert rng_ours.bit_generator.state == rng_theirs.bit_generator.state


# -- workload → resolver → trace ---------------------------------------------------
@pytest.mark.parametrize("config", list(CONFIGS), ids=list(CONFIGS))
@pytest.mark.parametrize("buggy", [False, True], ids=["clean", "buggy"])
@pytest.mark.parametrize("seed", range(5))
def test_generate_and_run_match_oracle(generators, seed, buggy, config):
    stream = BrowsingWorkload(UNIVERSE, n_users=4, seed=seed).generate(days=0.5)
    events = list(
        oracle.BrowsingWorkload(oracle.ChoiceSampling(UNIVERSE), n_users=4, seed=seed)
        .generate(days=0.5)
    )
    assert [(e.t, e.question, e.origin) for e in stream] == [
        (e.t, e.question, e.origin) for e in events
    ]
    assert states(generators["production"]) == states(generators["oracle"])

    ours, theirs = resolvers(seed, has_redundant_bug=buggy, **CONFIGS[config])
    trace = ours.run(stream)
    assert_same_trace(trace, theirs.run(events))
    assert ours._rng.bit_generator.state == theirs._rng.bit_generator.state


def test_trace_reductions_match_oracle():
    ours, theirs = resolvers(4, has_redundant_bug=True, auth_timeout_prob=0.1)
    stream = BrowsingWorkload(UNIVERSE, n_users=6, seed=4).generate(days=1.0)
    trace, expected = ours.run(stream), theirs.run(list(stream))
    assert trace.total_root_queries == expected.total_root_queries
    assert trace.root_cache_miss_rate == expected.root_cache_miss_rate
    assert trace.client_latencies_ms().tolist() == expected.client_latencies_ms()
    assert trace.root_latencies_ms().tolist() == expected.root_latencies_ms()
    assert trace.duration_days() == expected.duration_days()
    assert localview._daily_miss_rates(trace) == oracle._daily_miss_rates(expected)
    assert analyze_redundancy(trace, 3_600.0) == oracle.analyze_redundancy(expected, 3_600.0)
    for at_least in (1, 2, 3):
        assert find_bug_episode(trace, at_least) == oracle.find_bug_episode(expected, at_least)
    assert views(trace) == views(expected)
    assert views([trace[-1]]) == views([list(expected)[-1]])


def test_trace_pickles_by_column():
    trace = resolvers()[0].run(BrowsingWorkload(UNIVERSE, n_users=2, seed=1).generate(0.2))
    clone = pickle.loads(pickle.dumps(trace))
    assert columns(clone) == columns(trace)


# -- experiments ----------------------------------------------------------------------
@pytest.mark.parametrize("buggy", [False, True], ids=["clean", "buggy"])
def test_isi_experiment_matches_oracle(generators, buggy):
    args = dict(n_users=5, days=1.5, buggy=buggy, seed=11)
    ours = IsiResolverExperiment(ZONE, UNIVERSE, latency(), **args).run()
    theirs = oracle.IsiResolverExperiment(
        ZONE, oracle.ChoiceSampling(UNIVERSE), latency(), **args
    ).run()
    assert states(generators["production"]) == states(generators["oracle"])
    assert_same_trace(ours.trace, theirs.trace)
    assert ours.daily_miss_rates == theirs.daily_miss_rates
    assert ours.overall_miss_rate == theirs.overall_miss_rate
    assert ours.median_daily_miss_rate == theirs.median_daily_miss_rate
    assert ours.latency_cdf_ms().tolist() == theirs.latency_cdf_ms().tolist()
    assert ours.root_latency_cdf_ms().tolist() == theirs.root_latency_cdf_ms().tolist()
    assert ours.fraction_queries_touching_root() == theirs.fraction_queries_touching_root()
    for threshold in (0.0, 20.0, 100.0):
        assert ours.fraction_root_latency_over_ms(threshold) == (
            theirs.fraction_root_latency_over_ms(threshold)
        )


def test_author_experiment_matches_oracle(generators):
    args = dict(days=3.0, pages_per_day=40.0, seed=5)
    ours = AuthorMachineExperiment(ZONE, UNIVERSE, latency(), **args).run()
    theirs = oracle.AuthorMachineExperiment(
        ZONE, oracle.ChoiceSampling(UNIVERSE), latency(), **args
    ).run()
    assert states(generators["production"]) == states(generators["oracle"])
    assert_same_trace(ours.trace, theirs.trace)
    assert ours.daily_miss_rates == theirs.daily_miss_rates
    assert ours.daily_root_latency_ms == theirs.daily_root_latency_ms
    assert ours.daily_page_load_ms == theirs.daily_page_load_ms
    assert ours.daily_active_browse_ms == theirs.daily_active_browse_ms


# -- hand-built streams ----------------------------------------------------------------
def _name_pool() -> list[tuple[str, QType]]:
    domain, other = UNIVERSE.domains[0], UNIVERSE.domains[1]
    pool = [(domain.name, QType.A), (domain.name, QType.AAAA), (other.name, QType.A)]
    pool += [
        (f"www.{domain.name}", QType.A),              # subdomain → registrable parent
        (f"a.b.{other.name}", QType.AAAA),
        (f"nosuchsite.{domain.tld}", QType.A),        # TLD NXDOMAIN
        (f"nosuchsite.{ZONE.tlds[-1]}", QType.AAAA),
        ("qzjxkwpbvt", QType.A),                       # Chromium-style probe
        ("host7.corp", QType.A),                       # invalid TLD
        ("4.3.2.11.in-addr.arpa", QType.PTR),
        (domain.name, QType.PTR),
        (f"{domain.name}.", QType.A),                  # trailing dot: unknown parent
        ("", QType.A),
        (domain.nameservers[0], QType.A),
    ]
    return pool


#: Gaps that land a query exactly on a cache expiry, plus ties and small steps.
GAPS = [0.0, 0.5, ANSWER_TTL_S, NEGATIVE_TTL_S, DELEGATION_TTL_S, float(ZONE.ttl_s), 4_000.0]


@st.composite
def hand_streams(draw) -> list[TimedQuestion]:
    pool = _name_pool()
    t = draw(st.sampled_from([0.0, 17.25]))
    stream = []
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        qname, qtype = draw(st.sampled_from(pool))
        origin = draw(st.sampled_from(["browse", "chromium", "invalid", "ptr"]))
        stream.append(TimedQuestion(t, Question(qname, qtype), origin))
        t += draw(st.sampled_from(GAPS))
    return stream


@given(hand_streams(), st.integers(min_value=0, max_value=3))
def test_hand_built_streams_match_oracle(stream, seed):
    config = dict(has_redundant_bug=True, auth_timeout_prob=0.3)
    ours, theirs = resolvers(seed, **config)
    expected = theirs.run(stream)
    assert_same_trace(ours.run(stream), expected)
    assert ours._rng.bit_generator.state == theirs._rng.bit_generator.state
    stepwise = resolvers(seed, **config)[0]
    assert views([stepwise.handle(timed) for timed in stream]) == views(expected)
    assert stepwise._rng.bit_generator.state == theirs._rng.bit_generator.state


@pytest.mark.parametrize(
    "qname",
    [f"www.{UNIVERSE.domains[2].name}", f"nosuchsite.{UNIVERSE.domains[2].tld}"],
    ids=["subdomain", "unknown-second-level"],
)
def test_uncommon_branches_match_oracle(qname):
    stream = [
        TimedQuestion(t, Question(qname, QType.A))
        for t in (0.0, 1.0, NEGATIVE_TTL_S, ANSWER_TTL_S + NEGATIVE_TTL_S)
    ]
    ours, theirs = resolvers(7)
    assert_same_trace(ours.run(stream), theirs.run(stream))
    assert ours._rng.bit_generator.state == theirs._rng.bit_generator.state
