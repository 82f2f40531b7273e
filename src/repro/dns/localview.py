"""Local-perspective experiments (§4.3 local, Appendix D).

Two setups, mirroring the paper's:

* :class:`IsiResolverExperiment` — a shared recursive serving a small
  population (the USC/ISI trace): measures the *root cache miss rate*
  (root queries as a fraction of client queries) and the latency CDFs of
  Fig. 12/13.
* :class:`AuthorMachineExperiment` — a single user running a local
  non-forwarding resolver with no shared cache, plus browser-style
  bookkeeping: how does daily root-DNS wait compare to daily page-load
  time and active browsing time?
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..geo import make_rng
from .records import QTYPES, QType, RootZone
from .resolver import ResolverConfig, RootLatencyModel, SimulatedRecursive
from .trace import DnsTrace
from .workload import BrowsingWorkload, DomainUniverse, QueryStream

__all__ = ["IsiResolverExperiment", "IsiResult", "AuthorMachineExperiment", "AuthorResult"]


def _daily_miss_rates(trace: DnsTrace) -> list[float]:
    """Root cache miss rate for each simulated day."""
    days, day_of_query = np.unique(trace.t // 86_400, return_inverse=True)
    queries = np.bincount(day_of_query, minlength=len(days)).tolist()
    roots = np.bincount(day_of_query, weights=trace.root_counts(), minlength=len(days))
    return [int(root) / count for root, count in zip(roots.tolist(), queries)]


@dataclass(slots=True)
class IsiResult:
    """Outputs of the shared-resolver experiment."""

    trace: DnsTrace
    daily_miss_rates: list[float]

    @property
    def overall_miss_rate(self) -> float:
        return self.trace.root_cache_miss_rate

    @property
    def median_daily_miss_rate(self) -> float:
        return float(np.median(self.daily_miss_rates)) if self.daily_miss_rates else 0.0

    def latency_cdf_ms(self) -> np.ndarray:
        return np.sort(self.trace.client_latencies_ms())

    def root_latency_cdf_ms(self) -> np.ndarray:
        return np.sort(self.trace.root_latencies_ms())

    def fraction_queries_touching_root(self) -> float:
        touched = int(np.count_nonzero(self.trace.root_counts()))
        return touched / max(1, len(self.trace))

    def fraction_root_latency_over_ms(self, threshold_ms: float) -> float:
        over = int(np.count_nonzero(self.trace.root_latencies_ms() > threshold_ms))
        return over / max(1, len(self.trace))


class IsiResolverExperiment:
    """Shared recursive serving a small population for many days."""

    def __init__(
        self,
        zone: RootZone,
        universe: DomainUniverse,
        root_latency: RootLatencyModel,
        n_users: int = 120,
        days: float = 14.0,
        buggy: bool = True,
        seed: int = 0,
    ):
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
    """Outputs of the single-user local-resolver experiment."""

    trace: DnsTrace
    daily_miss_rates: list[float]
    daily_root_latency_ms: list[float] = field(default_factory=list)
    daily_page_load_ms: list[float] = field(default_factory=list)
    daily_active_browse_ms: list[float] = field(default_factory=list)

    @property
    def median_daily_miss_rate(self) -> float:
        return float(np.median(self.daily_miss_rates)) if self.daily_miss_rates else 0.0

    @property
    def root_share_of_page_load(self) -> float:
        """Median daily root latency over median daily page-load time."""
        if not self.daily_page_load_ms:
            return 0.0
        return float(np.median(self.daily_root_latency_ms)) / float(
            np.median(self.daily_page_load_ms)
        )

    @property
    def root_share_of_browsing(self) -> float:
        if not self.daily_active_browse_ms:
            return 0.0
        return float(np.median(self.daily_root_latency_ms)) / float(
            np.median(self.daily_active_browse_ms)
        )


class AuthorMachineExperiment:
    """One user, one local caching resolver, page-level bookkeeping."""

    def __init__(
        self,
        zone: RootZone,
        universe: DomainUniverse,
        root_latency: RootLatencyModel,
        days: float = 28.0,
        pages_per_day: float = 120.0,
        seed: int = 0,
    ):
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
        n_days = int(self.days)
        page_t: list[float] = []
        page_day: list[int] = []
        picks: list[np.ndarray] = []
        tails: list[np.ndarray] = []
        for day in range(n_days):
            n_pages = int(rng.poisson(self.pages_per_day))
            times = np.sort(rng.uniform(day * 86_400.0, (day + 1) * 86_400.0, size=n_pages))
            for t in times.tolist():
                # The page's domain, then the third-party count, then the
                # third parties, content time and active time in one block.
                first = rng.random()
                k = int(rng.integers(2, 8))
                tail = rng.random(k + 2)
                page_t.append(t)
                page_day.append(day)
                picks.append(self.universe.sample_indexes(np.append(first, tail[:k])))
                tails.append(tail[k:])
        n_pages = len(page_t)
        per_page = np.array([len(p) for p in picks], dtype=np.int64)
        page_of_query = np.repeat(np.arange(n_pages), per_page)
        stream = QueryStream(
            [domain.name for domain in self.universe.domains],
            np.array(page_t)[page_of_query],
            np.concatenate(picks) if picks else (),
            np.full(len(page_of_query), QTYPES.index(QType.A)),
            np.zeros(len(page_of_query)),
        )
        trace = resolver.run(stream)
        # Page load: DNS wait + content transfer (~10 RTTs of ~30 ms plus
        # render time); active time dwarfs it.  Every sum runs in page
        # order, like a running total.
        tail = np.array(tails).reshape(-1, 2)
        content_ms = 1_000.0 + (4_000.0 - 1_000.0) * tail[:, 0]
        browse_ms = 20_000.0 + (90_000.0 - 20_000.0) * tail[:, 1]
        day = np.array(page_day, dtype=np.int64)
        dns_wait = np.bincount(page_of_query, weights=trace.latency_ms, minlength=n_pages)
        root_ms = np.bincount(
            day[page_of_query], weights=trace.root_latencies_ms(), minlength=n_days
        )
        page_ms = np.bincount(day, weights=dns_wait + content_ms, minlength=n_days)
        active_ms = np.bincount(day, weights=browse_ms, minlength=n_days)
        return AuthorResult(
            trace=trace,
            daily_miss_rates=_daily_miss_rates(trace),
            daily_root_latency_ms=root_ms.tolist(),
            daily_page_load_ms=page_ms.tolist(),
            daily_active_browse_ms=active_ms.tolist(),
        )
