"""Object-per-query DNS local view: the equivalence oracle for ``repro.dns``.

This is the local-view pipeline as it ran before ``repro.dns`` went
columnar. Its code paths are kept verbatim (docstrings trimmed); only
imports changed, plus one wrapper:

* :class:`TtlCache` — the dict-backed TTL cache;
* :class:`ChoiceSampling` — a universe's ``sample``/``sample_many`` on
  ``rng.choice(p=...)``;
* :class:`BrowsingWorkload`, :class:`SimulatedRecursive` (with its
  glue-A/AAAA caches and ``cache_capacity``), :class:`DnsTrace` of
  :class:`ClientQuery` objects;
* the ISI and author-machine experiments and the Appendix-E analyses.

``tests/test_dns_columnar.py`` runs it side by side with the production
path and requires every column and every generator state to match.
Unchanged pieces (zone, questions, root-latency model, the Appendix-E
result records) are imported from ``repro``.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.core.redundant import RedundancyStats, Table5Episode
from repro.dns import (
    INVALID_TLDS,
    Question,
    QType,
    RootLatencyModel,
    RootZone,
)
from repro.geo import make_rng

AUTH_TIMEOUT_MS = 800.0
NEGATIVE_TTL_S = 900.0
ANSWER_TTL_S = 300.0
DELEGATION_TTL_S = 86_400.0


# -- cache ---------------------------------------------------------------------
class TtlCache:
    """A name→expiry cache with optional capacity-based eviction.

    Time is explicit (seconds as floats) so the resolver simulation can
    drive it from its own clock; there is no wall-clock dependence.
    """

    def __init__(self, capacity: int | None = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive")
        self._expiry: dict[str, float] = {}
        self._value: dict[str, object] = {}
        self._capacity = capacity
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._expiry)

    def contains(self, key: str, now: float) -> bool:
        """Whether ``key`` is cached and fresh at time ``now``."""
        expiry = self._expiry.get(key)
        if expiry is None or expiry <= now:
            self.misses += 1
            return False
        self.hits += 1
        return True

    def peek(self, key: str, now: float) -> bool:
        """Like :meth:`contains` but without touching hit/miss counters."""
        expiry = self._expiry.get(key)
        return expiry is not None and expiry > now

    def get(self, key: str, now: float) -> object | None:
        if not self.peek(key, now):
            return None
        return self._value.get(key)

    def put(self, key: str, now: float, ttl_s: float, value: object = None) -> None:
        if ttl_s <= 0:
            return
        if (
            self._capacity is not None
            and key not in self._expiry
            and len(self._expiry) >= self._capacity
        ):
            self._evict_one(now)
        self._expiry[key] = now + ttl_s
        self._value[key] = value

    def _evict_one(self, now: float) -> None:
        """Drop the stalest entry (earliest expiry)."""
        stalest = min(self._expiry, key=self._expiry.get)
        del self._expiry[stalest]
        self._value.pop(stalest, None)

    def expire(self, now: float) -> int:
        """Remove entries no longer fresh; returns how many were dropped."""
        dead = [key for key, expiry in self._expiry.items() if expiry <= now]
        for key in dead:
            del self._expiry[key]
            self._value.pop(key, None)
        return len(dead)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


# -- workload --------------------------------------------------------------------
class ChoiceSampling:
    """A domain universe sampled with ``rng.choice(p=popularity)``."""

    def __init__(self, universe):
        self.domains = universe.domains
        self.popularity = universe.popularity

    def __len__(self) -> int:
        return len(self.domains)

    def sample(self, rng: np.random.Generator):
        return self.domains[int(rng.choice(len(self.domains), p=self.popularity))]

    def sample_many(self, rng: np.random.Generator, size: int) -> list:
        indexes = rng.choice(len(self.domains), size=size, p=self.popularity)
        return [self.domains[i] for i in indexes]


@dataclass(frozen=True, slots=True)
class TimedQuestion:
    """A question at a point in simulated time."""

    t: float
    question: Question
    #: Tags the generating process so analyses can check their filters:
    #: "browse", "chromium", "invalid", "ptr".
    origin: str = "browse"


class BrowsingWorkload:
    """Generates the client query stream arriving at one recursive."""

    def __init__(
        self,
        universe: ChoiceSampling,
        n_users: int = 50,
        pages_per_user_day: float = 80.0,
        sessions_per_user_day: float = 6.0,
        invalid_rate_per_user_day: float = 8.0,
        ptr_rate_per_user_day: float = 1.0,
        seed: int = 0,
    ):
        if n_users < 1:
            raise ValueError("need at least one user")
        self.universe = universe
        self.n_users = n_users
        self.pages_per_user_day = pages_per_user_day
        self.sessions_per_user_day = sessions_per_user_day
        self.invalid_rate_per_user_day = invalid_rate_per_user_day
        self.ptr_rate_per_user_day = ptr_rate_per_user_day
        self._seed = seed

    def _page_queries(self, t: float, rng: np.random.Generator) -> list[TimedQuestion]:
        queries: list[TimedQuestion] = []
        n_third_party = int(rng.integers(2, 8))
        domains = [self.universe.sample(rng)] + self.universe.sample_many(rng, n_third_party)
        offset = 0.0
        for domain in domains:
            queries.append(TimedQuestion(t + offset, Question(domain.name, QType.A)))
            if rng.uniform() < 0.6:
                queries.append(TimedQuestion(t + offset, Question(domain.name, QType.AAAA)))
            offset += float(rng.uniform(0.01, 0.4))
        return queries

    def generate(self, days: float) -> Iterator[TimedQuestion]:
        """Yield the merged, time-ordered query stream for ``days`` days."""
        rng = make_rng(self._seed, "workload")
        horizon = days * 86_400.0
        events: list[TimedQuestion] = []

        n_pages = rng.poisson(self.pages_per_user_day * self.n_users * days)
        for t in rng.uniform(0.0, horizon, size=n_pages):
            events.extend(self._page_queries(float(t), rng))

        n_sessions = rng.poisson(self.sessions_per_user_day * self.n_users * days)
        for t in rng.uniform(0.0, horizon, size=n_sessions):
            for _ in range(3):  # Chromium captive-portal probes
                label = "".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz"), size=10))
                events.append(
                    TimedQuestion(float(t), Question(label, QType.A), origin="chromium")
                )

        n_invalid = rng.poisson(self.invalid_rate_per_user_day * self.n_users * days)
        for t in rng.uniform(0.0, horizon, size=n_invalid):
            tld = INVALID_TLDS[int(rng.integers(0, len(INVALID_TLDS)))]
            events.append(
                TimedQuestion(
                    float(t), Question(f"host{int(rng.integers(0, 50))}.{tld}", QType.A),
                    origin="invalid",
                )
            )

        n_ptr = rng.poisson(self.ptr_rate_per_user_day * self.n_users * days)
        for t in rng.uniform(0.0, horizon, size=n_ptr):
            a, b, c, d = rng.integers(1, 254, size=4)
            events.append(
                TimedQuestion(
                    float(t),
                    Question(f"{d}.{c}.{b}.{a}.in-addr.arpa", QType.PTR),
                    origin="ptr",
                )
            )

        events.sort(key=lambda e: e.t)
        yield from events


# -- trace -----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class UpstreamQuery:
    """One query the resolver sent upstream while serving a client."""

    t: float
    server: str          # "root:J", "tld:com", "auth:ns1.example.com"
    qname: str
    qtype: QType
    rtt_ms: float
    timed_out: bool = False

    @property
    def is_root(self) -> bool:
        return self.server.startswith("root:")

    @property
    def root_letter(self) -> str | None:
        return self.server.split(":", 1)[1] if self.is_root else None


@dataclass(frozen=True, slots=True)
class ClientQuery:
    """One client query and everything the resolver did to answer it."""

    t: float
    qname: str
    qtype: QType
    latency_ms: float
    upstream: tuple[UpstreamQuery, ...] = ()

    @property
    def root_queries(self) -> tuple[UpstreamQuery, ...]:
        return tuple(q for q in self.upstream if q.is_root)

    @property
    def root_latency_ms(self) -> float:
        """Root-server wait attributable to this query (0 when cached)."""
        return sum(q.rtt_ms for q in self.root_queries if not q.timed_out)

    @property
    def cached(self) -> bool:
        return not self.upstream


@dataclass(slots=True)
class DnsTrace:
    """An ordered capture of client queries with their upstream fan-out."""

    queries: list[ClientQuery] = field(default_factory=list)

    def add(self, query: ClientQuery) -> None:
        self.queries.append(query)

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self):
        return iter(self.queries)

    @property
    def total_root_queries(self) -> int:
        return sum(len(q.root_queries) for q in self.queries)

    @property
    def root_cache_miss_rate(self) -> float:
        """Root queries as a fraction of client queries (§4.3's metric)."""
        if not self.queries:
            return 0.0
        return self.total_root_queries / len(self.queries)

    def client_latencies_ms(self) -> list[float]:
        return [q.latency_ms for q in self.queries]

    def root_latencies_ms(self) -> list[float]:
        """Per-client-query root latency, zero when no root was consulted."""
        return [q.root_latency_ms for q in self.queries]

    def all_upstream(self) -> list[UpstreamQuery]:
        events: list[UpstreamQuery] = []
        for query in self.queries:
            events.extend(query.upstream)
        return events

    def duration_days(self) -> float:
        if len(self.queries) < 2:
            return 0.0
        return (self.queries[-1].t - self.queries[0].t) / 86_400.0


# -- resolver --------------------------------------------------------------------
class LetterPreference:
    """RTT-driven letter selection (Müller et al.'s observed behaviour)."""

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
        return self.letters[int(rng.choice(len(self.letters), p=self.weights()))]


@dataclass(frozen=True, slots=True)
class ResolverConfig:
    """Behavioural knobs of the simulated resolver."""

    has_redundant_bug: bool = False
    auth_timeout_prob: float = 0.005
    aaaa_glue_prob: float = 0.3    # TLDs rarely include AAAA glue
    a_glue_prob: float = 0.9
    cache_capacity: int | None = None


class SimulatedRecursive:
    """A caching recursive resolver answering a timed query stream."""

    def __init__(
        self,
        zone: RootZone,
        universe,
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
        capacity = self.config.cache_capacity
        self.tld_cache = TtlCache(capacity)
        self.delegation_cache = TtlCache(capacity)
        self.glue_a_cache = TtlCache(capacity)
        self.glue_aaaa_cache = TtlCache(capacity)
        self.answer_cache = TtlCache(capacity)
        self.negative_cache = TtlCache(capacity)
        self._domain_by_name = {d.name: d for d in universe.domains}
        self._unglued_aaaa: dict[str, tuple[str, ...]] = {}

    def _query_root(
        self, t: float, qname: str, qtype: QType, upstream: list[UpstreamQuery]
    ) -> float:
        letter = self.preference.choose(self._rng)
        rtt = self.root_latency.sample_rtt_ms(letter, self._rng)
        self.preference.observe(letter, rtt)
        upstream.append(UpstreamQuery(t, f"root:{letter}", qname, qtype, rtt))
        return rtt

    def _query_tld(
        self, t: float, tld: str, qname: str, qtype: QType, upstream: list[UpstreamQuery]
    ) -> float:
        rtt = float(self._rng.uniform(4.0, 60.0))
        upstream.append(UpstreamQuery(t, f"tld:{tld}", qname, qtype, rtt))
        return rtt

    def _query_auth(
        self, t: float, server: str, qname: str, qtype: QType, upstream: list[UpstreamQuery]
    ) -> tuple[float, bool]:
        timed_out = self._rng.uniform() < self.config.auth_timeout_prob
        rtt = AUTH_TIMEOUT_MS if timed_out else float(self._rng.uniform(5.0, 120.0))
        upstream.append(UpstreamQuery(t, f"auth:{server}", qname, qtype, rtt, timed_out))
        return rtt, timed_out

    def _ensure_tld(self, t: float, tld: str, upstream: list[UpstreamQuery]) -> float:
        if self.tld_cache.contains(tld, t):
            return 0.0
        wait = self._query_root(t, tld, QType.NS, upstream)
        self.tld_cache.put(tld, t, self.zone.ttl_s)
        return wait

    def _bug_redundant_root_queries(
        self, t: float, domain_name: str, upstream: list[UpstreamQuery]
    ) -> None:
        for server in self._unglued_aaaa.get(domain_name, ()):
            self._query_root(t, server, QType.AAAA, upstream)

    def _resolve_domain(
        self, t: float, question: Question, upstream: list[UpstreamQuery]
    ) -> float:
        domain = self._domain_by_name.get(question.qname)
        if domain is None:
            parts = question.qname.split(".")
            parent = ".".join(parts[-2:])
            domain = self._domain_by_name.get(parent)
        wait = self._ensure_tld(t, question.tld, upstream)
        if domain is None:
            wait += self._query_tld(t, question.tld, question.qname, question.qtype, upstream)
            self.negative_cache.put(question.qname, t, NEGATIVE_TTL_S)
            return wait

        if not self.delegation_cache.contains(domain.name, t):
            wait += self._query_tld(t, question.tld, question.qname, question.qtype, upstream)
            self.delegation_cache.put(domain.name, t, DELEGATION_TTL_S)
            unglued: list[str] = []
            for server in domain.nameservers:
                if self._rng.uniform() < self.config.a_glue_prob:
                    self.glue_a_cache.put(server, t, DELEGATION_TTL_S)
                if self._rng.uniform() < self.config.aaaa_glue_prob:
                    self.glue_aaaa_cache.put(server, t, DELEGATION_TTL_S)
                else:
                    unglued.append(server)
            self._unglued_aaaa[domain.name] = tuple(unglued)

        order = list(domain.nameservers)
        self._rng.shuffle(order)
        for attempt, server in enumerate(order):
            rtt, timed_out = self._query_auth(
                t + wait / 1000.0, server, question.qname, question.qtype, upstream
            )
            wait += rtt
            if not timed_out:
                self.answer_cache.put(f"{question.qname}/{question.qtype.value}", t, ANSWER_TTL_S)
                return wait
            if self.config.has_redundant_bug:
                self._bug_redundant_root_queries(t + wait / 1000.0, domain.name, upstream)
            if attempt >= 2:
                break
        return wait

    def handle(self, timed: TimedQuestion) -> ClientQuery:
        t, question = timed.t, timed.question
        upstream: list[UpstreamQuery] = []
        base_ms = float(self._rng.uniform(0.05, 0.9))

        answer_key = f"{question.qname}/{question.qtype.value}"
        if self.answer_cache.contains(answer_key, t) or self.negative_cache.peek(question.qname, t):
            return ClientQuery(t, question.qname, question.qtype, base_ms, ())

        if question.qtype is QType.PTR:
            rtt = float(self._rng.uniform(10.0, 150.0))
            upstream.append(UpstreamQuery(t, "auth:in-addr-arpa", question.qname, QType.PTR, rtt))
            self.answer_cache.put(answer_key, t, ANSWER_TTL_S)
            return ClientQuery(t, question.qname, question.qtype, base_ms + rtt, tuple(upstream))

        tld = question.tld
        if question.is_single_label or not self.zone.is_valid_tld(tld):
            wait = self._query_root(t, question.qname, question.qtype, upstream)
            self.negative_cache.put(question.qname, t, NEGATIVE_TTL_S)
            return ClientQuery(t, question.qname, question.qtype, base_ms + wait, tuple(upstream))

        wait = self._resolve_domain(t, question, upstream)
        return ClientQuery(t, question.qname, question.qtype, base_ms + wait, tuple(upstream))

    def run(self, stream) -> DnsTrace:
        trace = DnsTrace()
        for timed in stream:
            trace.add(self.handle(timed))
        return trace


# -- local-view experiments -------------------------------------------------------
def _daily_miss_rates(trace: DnsTrace) -> list[float]:
    per_day_client: dict[int, int] = {}
    per_day_root: dict[int, int] = {}
    for query in trace:
        day = int(query.t // 86_400)
        per_day_client[day] = per_day_client.get(day, 0) + 1
        per_day_root[day] = per_day_root.get(day, 0) + len(query.root_queries)
    return [
        per_day_root.get(day, 0) / count
        for day, count in sorted(per_day_client.items())
        if count > 0
    ]


@dataclass(slots=True)
class IsiResult:
    trace: DnsTrace
    daily_miss_rates: list[float]

    @property
    def overall_miss_rate(self) -> float:
        return self.trace.root_cache_miss_rate

    @property
    def median_daily_miss_rate(self) -> float:
        return float(np.median(self.daily_miss_rates)) if self.daily_miss_rates else 0.0

    def latency_cdf_ms(self) -> np.ndarray:
        return np.sort(np.array(self.trace.client_latencies_ms()))

    def root_latency_cdf_ms(self) -> np.ndarray:
        return np.sort(np.array(self.trace.root_latencies_ms()))

    def fraction_queries_touching_root(self) -> float:
        touched = sum(1 for q in self.trace if q.root_queries)
        return touched / max(1, len(self.trace))

    def fraction_root_latency_over_ms(self, threshold_ms: float) -> float:
        over = sum(1 for q in self.trace if q.root_latency_ms > threshold_ms)
        return over / max(1, len(self.trace))


class IsiResolverExperiment:
    def __init__(self, zone, universe, root_latency, n_users=120, days=14.0,
                 buggy=True, seed=0):
        self.zone = zone
        self.universe = universe
        self.root_latency = root_latency
        self.n_users = n_users
        self.days = days
        self.buggy = buggy
        self.seed = seed

    def run(self) -> IsiResult:
        workload = BrowsingWorkload(
            self.universe,
            n_users=self.n_users,
            pages_per_user_day=70.0,
            sessions_per_user_day=0.8,
            invalid_rate_per_user_day=0.6,
            ptr_rate_per_user_day=0.5,
            seed=self.seed,
        )
        resolver = SimulatedRecursive(
            self.zone,
            self.universe,
            self.root_latency,
            config=ResolverConfig(has_redundant_bug=self.buggy),
            seed=self.seed,
        )
        trace = resolver.run(workload.generate(self.days))
        return IsiResult(trace=trace, daily_miss_rates=_daily_miss_rates(trace))


@dataclass(slots=True)
class AuthorResult:
    trace: DnsTrace
    daily_miss_rates: list[float]
    daily_root_latency_ms: list[float] = field(default_factory=list)
    daily_page_load_ms: list[float] = field(default_factory=list)
    daily_active_browse_ms: list[float] = field(default_factory=list)


class AuthorMachineExperiment:
    def __init__(self, zone, universe, root_latency, days=28.0, pages_per_day=120.0, seed=0):
        self.zone = zone
        self.universe = universe
        self.root_latency = root_latency
        self.days = days
        self.pages_per_day = pages_per_day
        self.seed = seed

    def run(self) -> AuthorResult:
        rng = make_rng(self.seed, "author-machine")
        resolver = SimulatedRecursive(
            self.zone,
            self.universe,
            self.root_latency,
            config=ResolverConfig(has_redundant_bug=False),
            seed=self.seed,
        )
        trace = DnsTrace()
        n_days = int(self.days)
        daily_root: list[float] = []
        daily_page: list[float] = []
        daily_browse: list[float] = []
        for day in range(n_days):
            root_ms = 0.0
            page_ms = 0.0
            browse_ms = 0.0
            n_pages = int(rng.poisson(self.pages_per_day))
            times = np.sort(rng.uniform(day * 86_400.0, (day + 1) * 86_400.0, size=n_pages))
            for t in times:
                dns_wait = 0.0
                domains = [self.universe.sample(rng)] + self.universe.sample_many(
                    rng, int(rng.integers(2, 8))
                )
                for domain in domains:
                    answer = resolver.handle(
                        TimedQuestion(float(t), Question(domain.name, QType.A))
                    )
                    trace.add(answer)
                    dns_wait += answer.latency_ms
                    root_ms += answer.root_latency_ms
                content_ms = float(rng.uniform(1_000.0, 4_000.0))
                page_ms += dns_wait + content_ms
                browse_ms += float(rng.uniform(20_000.0, 90_000.0))
            daily_root.append(root_ms)
            daily_page.append(page_ms)
            daily_browse.append(browse_ms)
        return AuthorResult(
            trace=trace,
            daily_miss_rates=_daily_miss_rates(trace),
            daily_root_latency_ms=daily_root,
            daily_page_load_ms=daily_page,
            daily_active_browse_ms=daily_browse,
        )


# -- Appendix-E analyses --------------------------------------------------------------
def analyze_redundancy(trace: DnsTrace, ttl_s: float = 172_800.0) -> RedundancyStats:
    stats = RedundancyStats()
    last_asked: dict[tuple[str, str], float] = {}
    for client_query in trace:
        had_timeout = any(q.timed_out for q in client_query.upstream)
        for upstream in client_query.upstream:
            if not upstream.is_root:
                continue
            stats.total_root_queries += 1
            key = (upstream.qname, upstream.qtype.value)
            previous = last_asked.get(key)
            last_asked[key] = upstream.t
            if previous is None or upstream.t - previous >= ttl_s:
                continue
            stats.redundant += 1
            if upstream.qtype is QType.AAAA:
                stats.redundant_aaaa += 1
                if had_timeout:
                    stats.redundant_matching_bug_pattern += 1
    return stats


def find_bug_episode(trace: DnsTrace, min_root_aaaa: int = 2) -> Table5Episode | None:
    """Locate a client query exhibiting the Table-5 pattern."""
    for client_query in trace:
        if not _is_bug_episode(client_query, min_root_aaaa):
            continue
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
    return None


def _is_bug_episode(client_query: ClientQuery, min_root_aaaa: int) -> bool:
    timed_out = any(q.timed_out for q in client_query.upstream)
    root_aaaa = sum(
        1
        for q in client_query.upstream
        if q.is_root and q.qtype is QType.AAAA
    )
    return timed_out and root_aaaa >= min_root_aaaa
