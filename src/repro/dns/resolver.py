"""Packet-level recursive resolver simulation.

Implements the resolver behaviour the paper's local-view experiments
depend on:

* TTL caches for TLD delegations, domain delegations, answers, and
  negative results;
* root-letter preference: per Müller et al., recursives favour their
  lowest-latency letters but keep probing all of them;
* authoritative-server timeouts with retry over the NS set;
* the **BIND redundant-query bug** (Appendix E): after an unanswered
  query to a domain's nameserver, the resolver asks the *root* for the
  AAAA records of every nameserver it lacks glue for — even though the
  TLD's records are fresh in cache.  Table 5 is one such episode.

The resolver answers a :class:`~repro.dns.workload.QueryStream` (or any
:class:`~repro.dns.workload.TimedQuestion` iterable) and records
everything in a columnar :class:`~repro.dns.trace.DnsTrace`.  Names are
interned to integer ids; each cache is a flat list of expiry times
indexed by id, and an entry is fresh while its expiry is later than now.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geo import make_rng
from .records import QTYPES, Question, QType, RootZone
from .trace import AUTH, ROOT, TLD, ClientQuery, DnsTrace
from .workload import DomainUniverse, QueryStream, TimedQuestion

__all__ = ["RootLatencyModel", "StaticRootLatency", "LetterPreference", "SimulatedRecursive"]

#: Resolver-side timeout before retrying another nameserver, ms.
AUTH_TIMEOUT_MS = 800.0
#: Negative-answer (NXDOMAIN) cache TTL, seconds.
NEGATIVE_TTL_S = 900.0
#: Answer-record TTL, seconds.
ANSWER_TTL_S = 300.0
#: Domain-delegation TTL, seconds.
DELEGATION_TTL_S = 86_400.0

_NS, _AAAA, _PTR = (QTYPES.index(q) for q in (QType.NS, QType.AAAA, QType.PTR))
_NEVER = float("-inf")
#: An upstream query is recorded as (t, server kind, server name id,
#: qname id, qtype code, rtt ms, timed out), flattened into one list.
_UPSTREAM_FIELDS = 7


class RootLatencyModel:
    """Interface: RTT samples from this resolver to each root letter."""

    @property
    def letters(self) -> tuple[str, ...]:  # pragma: no cover - interface
        raise NotImplementedError

    def sample_rtt_ms(self, letter: str, rng: np.random.Generator) -> float:  # pragma: no cover
        raise NotImplementedError


class StaticRootLatency(RootLatencyModel):
    """Fixed per-letter baseline RTTs with lognormal jitter."""

    def __init__(self, base_rtt_ms: dict[str, float], jitter_frac: float = 0.08):
        if not base_rtt_ms:
            raise ValueError("need at least one letter")
        self._base = dict(base_rtt_ms)
        self._jitter = jitter_frac

    @property
    def letters(self) -> tuple[str, ...]:
        return tuple(sorted(self._base))

    def sample_rtt_ms(self, letter: str, rng: np.random.Generator) -> float:
        return self._base[letter] * float(rng.lognormal(0.0, self._jitter))


class LetterPreference:
    """RTT-driven letter selection (Müller et al.'s observed behaviour).

    Keeps a smoothed RTT per letter and samples letters with probability
    proportional to ``(1/srtt)^gamma`` plus an exploration floor, so fast
    letters take most queries while every letter keeps getting probed.
    """

    def __init__(self, letters: tuple[str, ...], gamma: float = 2.0, floor: float = 0.01):
        if not letters:
            raise ValueError("need at least one letter")
        self.letters = letters
        self.gamma = gamma
        self.floor = floor
        self._srtt: dict[str, float] = {letter: 100.0 for letter in letters}

    def observe(self, letter: str, rtt_ms: float) -> None:
        self._srtt[letter] = 0.8 * self._srtt[letter] + 0.2 * rtt_ms

    def weights(self) -> np.ndarray:
        inverse = np.array([1.0 / max(1.0, self._srtt[l]) for l in self.letters])
        weights = inverse**self.gamma
        weights = weights / weights.sum()
        weights = weights * (1.0 - self.floor * len(self.letters)) + self.floor
        return weights / weights.sum()

    def choose(self, rng: np.random.Generator) -> str:
        # ``rng.choice(p=weights)``'s own CDF search, on one ``random()`` draw.
        cdf = self.weights().cumsum()
        cdf /= cdf[-1]
        return self.letters[int(cdf.searchsorted(rng.random(), side="right"))]


@dataclass(frozen=True, slots=True)
class ResolverConfig:
    """Behavioural knobs of the simulated resolver."""

    has_redundant_bug: bool = False
    auth_timeout_prob: float = 0.005
    aaaa_glue_prob: float = 0.3    # TLDs rarely include AAAA glue


class SimulatedRecursive:
    """A caching recursive resolver answering a timed query stream.

    Every ``uniform(lo, hi)`` of the model is drawn as
    ``lo + (hi - lo) * random()``, which yields the same value from the
    same generator step.
    """

    def __init__(
        self,
        zone: RootZone,
        universe: DomainUniverse,
        root_latency: RootLatencyModel,
        config: ResolverConfig | None = None,
        seed: int = 0,
    ):
        self.zone = zone
        self.universe = universe
        self.root_latency = root_latency
        self.config = config or ResolverConfig()
        self._rng = make_rng(seed, "resolver")
        self.preference = LetterPreference(root_latency.letters)
        self._domain_index = {d.name: i for i, d in enumerate(universe.domains)}
        # Interned names and the per-name state, all indexed by name id.
        self._ids: dict[str, int] = {}
        self._names: list[str] = []
        #: (TLD id, domain index) of a client name: TLD id -1 for junk,
        #: domain index -1 when the valid TLD has no such domain.
        self._routes: list[tuple[int, int] | None] = []
        self._answer_expiry: list[float] = []      # per (name id, qtype code)
        self._negative_expiry: list[float] = []
        self._tld_expiry: list[float] = []
        n_domains = len(universe.domains)
        self._delegation_expiry = [_NEVER] * n_domains
        self._nameservers: list[tuple[int, ...] | None] = [None] * n_domains
        #: Nameservers whose AAAA glue was absent from the TLD's last
        #: delegation response, per domain — what the bug re-asks roots for.
        self._unglued_aaaa: list[tuple[int, ...]] = [()] * n_domains
        self._letter_ids = {letter: self._intern(letter) for letter in self.preference.letters}
        self._arpa = self._intern("in-addr-arpa")

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self._names)
            self._names.append(name)
            self._routes.append(None)
            self._answer_expiry.extend((_NEVER,) * len(QTYPES))
            self._negative_expiry.append(_NEVER)
            self._tld_expiry.append(_NEVER)
        return nid

    def _route(self, nid: int) -> tuple[int, int]:
        """How a non-PTR question for name ``nid`` resolves; memoised."""
        question = Question(self._names[nid], QType.A)
        tld = question.tld
        if question.is_single_label or not self.zone.is_valid_tld(tld):
            route = (-1, -1)
        else:
            index = self._domain_index.get(question.qname)
            if index is None:
                # A name outside the universe (e.g. nameserver host):
                # treat its registrable parent as the domain.
                parent = ".".join(question.qname.split(".")[-2:])
                index = self._domain_index.get(parent, -1)
            route = (self._intern(tld), index)
        self._routes[nid] = route
        return route

    # -- upstream helpers --------------------------------------------------
    def _query_root(self, t: float, qname: int, qtype: int, upstream: list) -> float:
        letter = self.preference.choose(self._rng)
        rtt = self.root_latency.sample_rtt_ms(letter, self._rng)
        self.preference.observe(letter, rtt)
        upstream += (t, ROOT, self._letter_ids[letter], qname, qtype, rtt, False)
        return rtt

    def _bug_redundant_root_queries(self, t: float, domain: int, upstream: list) -> None:
        """The Appendix-E pattern: AAAA root queries for un-glued NSes.

        These are *redundant*: the TLD that actually owns the records is
        cached, yet the query goes to a root letter — and because the
        root only returns a referral, nothing gets cached and the same
        names are re-asked after every timeout.  They run in parallel
        with the retry, so they add no client latency — only root load.
        """
        for server in self._unglued_aaaa[domain]:
            self._query_root(t, server, _AAAA, upstream)

    # -- resolution ---------------------------------------------------------
    def _fetch_delegation(
        self, t: float, nid: int, qtype: int, tld: int, domain: int, upstream: list
    ) -> float:
        """Ask the TLD for ``domain``'s delegation; returns the wait in ms."""
        rng = self._rng
        rtt = 4.0 + (60.0 - 4.0) * rng.random()
        upstream += (t, TLD, tld, nid, qtype, rtt, False)
        self._delegation_expiry[domain] = t + DELEGATION_TTL_S
        servers = self._nameservers[domain]
        if servers is None:
            servers = tuple(map(self._intern, self.universe.domains[domain].nameservers))
            self._nameservers[domain] = servers
        # Per server, an A-glue then an AAAA-glue coin; only missing AAAA
        # glue changes behaviour.
        coins = rng.random(2 * len(servers)).tolist()
        aaaa_p = self.config.aaaa_glue_prob
        self._unglued_aaaa[domain] = tuple(
            server for server, coin in zip(servers, coins[1::2]) if not coin < aaaa_p
        )
        return rtt

    def handle(self, timed: TimedQuestion) -> ClientQuery:
        """Answer one client question, updating caches; one step of :meth:`run`."""
        return self.run((timed,))[0]

    def run(self, stream) -> DnsTrace:
        """Answer a :class:`QueryStream` (or ``TimedQuestion`` iterable) in order."""
        if not isinstance(stream, QueryStream):
            stream = QueryStream.from_questions(stream)
        local = [self._intern(name) for name in stream.names]
        rng = self._rng
        random, shuffle = rng.random, rng.shuffle
        answer, negative = self._answer_expiry, self._negative_expiry
        tld_expiry, delegation = self._tld_expiry, self._delegation_expiry
        routes, nameservers = self._routes, self._nameservers
        query_root = self._query_root
        tld_ttl = self.zone.ttl_s
        timeout_p = self.config.auth_timeout_prob
        buggy = self.config.has_redundant_bug
        nids = np.array(local, dtype=np.int64)[stream.name]
        keys = nids * len(QTYPES) + stream.qtype
        latency: list[float] = []
        ends: list[int] = []
        upstream: list = []  # _UPSTREAM_FIELDS values per upstream query
        extend = upstream.extend
        for t, nid, qtype, key in zip(
            stream.t.tolist(), nids.tolist(), stream.qtype.tolist(), keys.tolist()
        ):
            base_ms = 0.05 + (0.9 - 0.05) * random()
            wait = 0.0
            if answer[key] > t or negative[nid] > t:
                pass
            elif qtype == _PTR:
                # in-addr.arpa: one upstream round trip, no root involvement
                # (the arpa delegation stays cached essentially forever).
                wait = 10.0 + (150.0 - 10.0) * random()
                extend((t, AUTH, self._arpa, nid, qtype, wait, False))
                answer[key] = t + ANSWER_TTL_S
            elif (route := routes[nid] or self._route(nid))[0] < 0:
                # Junk: the root answers NXDOMAIN itself.
                wait = query_root(t, nid, qtype, upstream)
                negative[nid] = t + NEGATIVE_TTL_S
            else:
                tld, domain = route
                if not tld_expiry[tld] > t:
                    wait = query_root(t, tld, _NS, upstream)
                    if tld_ttl > 0:
                        tld_expiry[tld] = t + tld_ttl
                if domain < 0:
                    # Unknown second-level: the TLD answers NXDOMAIN directly.
                    rtt = 4.0 + (60.0 - 4.0) * random()
                    extend((t, TLD, tld, nid, qtype, rtt, False))
                    negative[nid] = t + NEGATIVE_TTL_S
                    wait += rtt
                else:
                    if not delegation[domain] > t:
                        wait += self._fetch_delegation(t, nid, qtype, tld, domain, upstream)
                    order = list(nameservers[domain])
                    shuffle(order)
                    for attempt, server in enumerate(order):
                        sent = t + wait / 1000.0
                        if not random() < timeout_p:
                            rtt = 5.0 + (120.0 - 5.0) * random()
                            extend((sent, AUTH, server, nid, qtype, rtt, False))
                            answer[key] = t + ANSWER_TTL_S
                            wait += rtt
                            break
                        extend((sent, AUTH, server, nid, qtype, AUTH_TIMEOUT_MS, True))
                        wait += AUTH_TIMEOUT_MS
                        if buggy:
                            self._bug_redundant_root_queries(t + wait / 1000.0, domain, upstream)
                        if attempt >= 2:
                            break  # give up after a few servers, as real resolvers do
            latency.append(base_ms + wait)
            ends.append(len(upstream))
        rows = np.array(upstream, dtype=np.float64).reshape(-1, _UPSTREAM_FIELDS)
        up_t, kind, server, qname, qtype, rtt, timed_out = rows.T
        return DnsTrace(
            self._names,
            t=stream.t, qname=nids, qtype=stream.qtype, latency_ms=latency,
            offsets=np.array([0] + ends) // _UPSTREAM_FIELDS,
            up_t=up_t, up_kind=kind, up_server=server, up_qname=qname, up_qtype=qtype,
            up_rtt_ms=rtt, up_timed_out=timed_out,
        )
