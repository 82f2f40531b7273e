"""Client-side DNS workload generation.

Synthesises the query stream a recursive resolver receives from its
users: page-load bursts over a heavy-tailed domain universe, plus the
junk the paper's preprocessing has to strip — Chromium captive-portal
probes (random single-label names), queries for invalid corporate TLDs,
and PTR lookups.

The stream is columnar (:class:`QueryStream`).  Generation consumes the
``workload`` random stream in a fixed order — each page one
``integers(2, 8)`` call and then one ``random(3k + 3)`` block — so the
stream, and every digest downstream of it, is a pure function of the seed.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from ..geo import make_rng
from .records import INVALID_TLDS, QTYPES, Question, QType, RootZone

__all__ = [
    "Domain",
    "DomainUniverse",
    "BrowsingWorkload",
    "TimedQuestion",
    "QueryStream",
    "ORIGINS",
]

#: Generating process of a query, by the integer code a stream stores.
ORIGINS = ("browse", "chromium", "invalid", "ptr")

_QTYPE_CODE = {qtype: code for code, qtype in enumerate(QTYPES)}
_ORIGIN_CODE = {origin: code for code, origin in enumerate(ORIGINS)}
_A, _AAAA, _PTR = _QTYPE_CODE[QType.A], _QTYPE_CODE[QType.AAAA], _QTYPE_CODE[QType.PTR]
#: Most domains one page load touches: the page plus up to 7 third parties.
_MAX_PAGE_DOMAINS = 8


@dataclass(frozen=True, slots=True)
class Domain:
    """A second-level domain with its authoritative nameserver names."""

    name: str                      # e.g. "site042.com"
    tld: str
    nameservers: tuple[str, ...]   # e.g. ("ns1.dnshost07.net", ...)


class DomainUniverse:
    """A popularity-ranked universe of domains for browsing workloads."""

    def __init__(self, zone: RootZone, n_domains: int = 5000, seed: int = 0):
        if n_domains < 10:
            raise ValueError("universe too small to be interesting")
        rng = make_rng(seed, "domains")
        tlds = zone.sample_tlds(rng, n_domains)
        # A smaller pool of DNS-hosting providers serves most domains.
        n_hosts = max(5, n_domains // 50)
        host_tlds = zone.sample_tlds(rng, n_hosts)
        hosts = [f"dnshost{i:03d}.{host_tlds[i]}" for i in range(n_hosts)]
        host_ranks = np.arange(1, n_hosts + 1, dtype=float)
        host_p = (1.0 / host_ranks) / (1.0 / host_ranks).sum()
        self.domains: list[Domain] = []
        for i in range(n_domains):
            provider = hosts[int(rng.choice(n_hosts, p=host_p))]
            n_ns = int(rng.integers(2, 7))
            nameservers = tuple(f"ns{j}.{provider}" for j in range(1, n_ns + 1))
            self.domains.append(
                Domain(name=f"site{i:05d}.{tlds[i]}", tld=tlds[i], nameservers=nameservers)
            )
        ranks = np.arange(1, n_domains + 1, dtype=float)
        weights = 1.0 / ranks**1.1
        self.popularity = weights / weights.sum()
        # The CDF ``Generator.choice(p=popularity)`` builds on every call:
        # searching it with ``random()`` draws picks the same domains.
        cdf = self.popularity.cumsum()
        cdf /= cdf[-1]
        self.cdf = cdf

    def __len__(self) -> int:
        return len(self.domains)

    def sample_indexes(self, draws: np.ndarray) -> np.ndarray:
        """Domain indexes for uniform ``draws`` in [0, 1), by popularity."""
        return self.cdf.searchsorted(draws, side="right")

    def sample(self, rng: np.random.Generator) -> Domain:
        return self.domains[int(self.sample_indexes(rng.random()))]

    def sample_many(self, rng: np.random.Generator, size: int) -> list[Domain]:
        return [self.domains[i] for i in self.sample_indexes(rng.random(size)).tolist()]


@dataclass(frozen=True, slots=True)
class TimedQuestion:
    """A question at a point in simulated time."""

    t: float
    question: Question
    #: Tags the generating process so analyses can check their filters:
    #: "browse", "chromium", "invalid", "ptr".
    origin: str = "browse"


class QueryStream:
    """A client query stream as parallel columns over a name table.

    Row ``i`` asks ``names[name[i]]`` for ``QTYPES[qtype[i]]`` at time
    ``t[i]``; ``ORIGINS[origin[i]]`` says which process generated it.  A
    resolver answers rows in array order.  Iterating yields
    :class:`TimedQuestion` views built on demand.
    """

    __slots__ = ("names", "t", "name", "qtype", "origin")

    def __init__(self, names, t, name, qtype, origin):
        self.names: list[str] = list(names)
        self.t = np.asarray(t, dtype=np.float64)
        self.name = np.asarray(name, dtype=np.int32)
        self.qtype = np.asarray(qtype, dtype=np.int8)
        self.origin = np.asarray(origin, dtype=np.int8)

    @classmethod
    def from_questions(cls, questions: Iterable[TimedQuestion]) -> QueryStream:
        """Intern a :class:`TimedQuestion` iterable, keeping its order."""
        ids: dict[str, int] = {}
        rows = [
            (
                timed.t,
                ids.setdefault(timed.question.qname, len(ids)),
                _QTYPE_CODE[timed.question.qtype],
                _ORIGIN_CODE[timed.origin],
            )
            for timed in questions
        ]
        t, name, qtype, origin = zip(*rows) if rows else ((), (), (), ())
        return cls(ids, t, name, qtype, origin)

    def __len__(self) -> int:
        return len(self.t)

    def __iter__(self) -> Iterator[TimedQuestion]:
        names = self.names
        columns = (self.t.tolist(), self.name.tolist(), self.qtype.tolist(), self.origin.tolist())
        for t, name, qtype, origin in zip(*columns):
            yield TimedQuestion(t, Question(names[name], QTYPES[qtype]), ORIGINS[origin])


class BrowsingWorkload:
    """Generates the client query stream arriving at one recursive.

    One *page load* queries the page's domain plus a handful of
    third-party domains (A, and often AAAA).  Sessions begin with
    Chromium's three random single-label probes.  Misconfigured hosts
    sprinkle invalid-TLD and PTR queries throughout.
    """

    def __init__(
        self,
        universe: DomainUniverse,
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

    def _pages(self, page_t: np.ndarray, rng: np.random.Generator):
        """Page-load queries: (t, domain index, qtype code) columns.

        A page's block of ``3m`` draws (``m`` domains) holds the ``m``
        domain picks, then per domain an AAAA coin and an inter-query gap.
        """
        integers, random = rng.integers, rng.random
        sizes, blocks = [], []
        for _ in range(len(page_t)):
            k = int(integers(2, 8))
            sizes.append(k + 1)
            blocks.append(random(3 * k + 3))
        m = np.array(sizes, dtype=np.int64)
        draws = np.concatenate(blocks) if blocks else np.empty(0)
        page = np.repeat(np.arange(len(m)), m)
        first = np.cumsum(m) - m
        slot = np.arange(len(page)) - first[page]
        block = 3 * first[page]
        domain = self.universe.sample_indexes(draws[block + slot])
        pair = block + m[page] + 2 * slot
        aaaa = draws[pair] < 0.6
        gaps = np.zeros((len(m), _MAX_PAGE_DOMAINS))
        gaps[page, slot] = 0.01 + (0.4 - 0.01) * draws[pair + 1]
        # Row-wise running sums add left to right, like a scalar loop.
        ends = np.cumsum(gaps, axis=1)
        offset = np.where(slot > 0, ends[page, slot - 1], 0.0)
        t = page_t[page] + offset
        # Each visit asks for A, then for AAAA when its coin came up.
        asked = np.column_stack([np.ones_like(aaaa), aaaa]).ravel()
        visit = np.repeat(np.arange(len(page)), 2)[asked]
        return t[visit], domain[visit], np.tile([_A, _AAAA], len(page))[asked]

    def generate(self, days: float) -> QueryStream:
        """The merged, time-ordered query stream for ``days`` days."""
        rng = make_rng(self._seed, "workload")
        horizon = days * 86_400.0
        names = [domain.name for domain in self.universe.domains]
        ids = {name: i for i, name in enumerate(names)}

        def intern(name: str) -> int:
            nid = ids.setdefault(name, len(names))
            if nid == len(names):
                names.append(name)
            return nid

        n_pages = rng.poisson(self.pages_per_user_day * self.n_users * days)
        page_t, page_name, page_qtype = self._pages(
            rng.uniform(0.0, horizon, size=n_pages), rng
        )

        n_sessions = rng.poisson(self.sessions_per_user_day * self.n_users * days)
        session_t = rng.uniform(0.0, horizon, size=n_sessions)
        # Chromium captive-portal probes: three ten-letter labels a session.
        letters = rng.integers(0, 26, size=(3 * n_sessions, 10)) + ord("a")
        text = letters.astype(np.uint8).tobytes().decode("ascii")
        probe_name = [intern(text[i:i + 10]) for i in range(0, len(text), 10)]

        n_invalid = rng.poisson(self.invalid_rate_per_user_day * self.n_users * days)
        invalid_t = rng.uniform(0.0, horizon, size=n_invalid)
        invalid_name = []
        for _ in range(n_invalid):
            tld = INVALID_TLDS[int(rng.integers(0, len(INVALID_TLDS)))]
            invalid_name.append(intern(f"host{int(rng.integers(0, 50))}.{tld}"))

        n_ptr = rng.poisson(self.ptr_rate_per_user_day * self.n_users * days)
        ptr_t = rng.uniform(0.0, horizon, size=n_ptr)
        octets = rng.integers(1, 254, size=(n_ptr, 4)).tolist()
        ptr_name = [intern(f"{d}.{c}.{b}.{a}.in-addr.arpa") for a, b, c, d in octets]

        t = np.concatenate([page_t, np.repeat(session_t, 3), invalid_t, ptr_t])
        name = np.concatenate(
            [page_name, np.array(probe_name + invalid_name + ptr_name, dtype=np.int64)]
        )
        qtype = np.concatenate(
            [page_qtype, np.full(len(probe_name) + n_invalid, _A), np.full(n_ptr, _PTR)]
        )
        origin = np.repeat(
            np.arange(len(ORIGINS)), [len(page_t), len(probe_name), n_invalid, n_ptr]
        )
        order = np.argsort(t, kind="stable")
        return QueryStream(names, t[order], name[order], qtype[order], origin[order])
