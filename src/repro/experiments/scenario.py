"""Scenario: one fully wired synthetic world with staged, cached artifacts.

Building every dataset the paper uses is expensive, and most experiments
need only a few of them; :class:`Scenario` therefore materialises each
artifact on first use.  Each artifact is a named **stage** handled by
:mod:`repro.engine`: stages are keyed by ``(stage, scale, seed,
params-digest, code-version)``, memoised in-process, and pickled into a
content-addressed on-disk cache so a second run of any experiment — in
this process, another process, or a later CLI invocation — is
near-instant.  Every materialisation is recorded (wall time, cache
hit/miss, artifact size) in ``scenario.report``.  Each stage imports its
builder inside its body, so a scenario whose stages all hit the cache
never imports the substrate modules that would build them.

Two presets:

* ``small`` — a reduced world for unit tests (seconds);
* ``medium`` — the paper-scale world (508 regions, ~2k ASes, a billion
  users) used by the benchmark harness.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .. import faults
from ..engine import (
    ArtifactCache,
    RunReport,
    StageKey,
    StageRecord,
    code_version,
    params_digest,
)
from ..obs import get_logger, metrics, rss_peak_bytes, trace
from ..topology import TopologyParams

if TYPE_CHECKING:  # stage builders import on first build, not with the scenario
    from ..anycast import CdnSystem, IndependentDeployment
    from ..ditl import DitlCapture, FilteredDitl, JoinStats, JoinedRecursive
    from ..dns import DomainUniverse, RootZone, StaticRootLatency
    from ..measurement import (
        AtlasPlatform,
        ClientSideMeasurements,
        Geolocator,
        ServerSideLogs,
    )
    from ..net import IpToAsnMapper
    from ..topology import GeneratedInternet
    from ..users import ApnicUserCounts, CdnUserCounts, UserBase
    from ..users.recursives import RecursivePopulation

__all__ = [
    "ScenarioConfig",
    "ScenarioParams",
    "Scenario",
    "default_scenario",
    "SCALES",
]

_log = get_logger("engine.scenario")


@dataclass(frozen=True, slots=True)
class ScenarioParams:
    """The frozen identity of one scenario: everything that selects a world."""

    scale: str = "small"
    seed: int = 0


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """Size knobs for one scenario scale."""

    name: str
    region_scale: float
    topology: TopologyParams
    total_population: int
    n_tlds: int
    n_domains: int
    n_probes: int
    serverlog_samples: int
    clientside_samples: int
    isi_users: int
    isi_days: float
    author_days: float


def _config(scale: str, seed: int) -> ScenarioConfig:
    if scale == "small":
        return ScenarioConfig(
            name="small",
            region_scale=0.12,
            topology=TopologyParams.small(seed=seed),
            total_population=50_000_000,
            n_tlds=200,
            n_domains=1_500,
            n_probes=200,
            serverlog_samples=12,
            clientside_samples=8,
            isi_users=40,
            isi_days=5.0,
            author_days=7.0,
        )
    if scale == "medium":
        return ScenarioConfig(
            name="medium",
            region_scale=1.0,
            topology=TopologyParams(seed=seed),
            total_population=1_000_000_000,
            n_tlds=1_000,
            n_domains=5_000,
            n_probes=1_000,
            serverlog_samples=24,
            clientside_samples=16,
            isi_users=120,
            isi_days=14.0,
            author_days=28.0,
        )
    raise ValueError(f"unknown scale {scale!r} (use 'small' or 'medium')")


#: Every persisted stage name, in dependency-safe build order (filled in
#: by the ``_stage`` decorator as the class body executes).
STAGES: list[str] = []


def _stage(method):
    """Declare one named, disk-cacheable Scenario stage."""

    name = method.__name__
    STAGES.append(name)

    @functools.wraps(method)
    def wrapper(self):
        return self._materialise(name, method)

    return property(wrapper)


class Scenario:
    """One synthetic world plus every dataset derived from it.

    Construction is keyword-only: ``Scenario(scale="small", seed=0)`` or
    ``Scenario(params=ScenarioParams(...))``.
    """

    def __init__(
        self,
        *,
        scale: str | None = None,
        seed: int | None = None,
        params: ScenarioParams | None = None,
        cache: ArtifactCache | None = None,
    ):
        if params is not None:
            if scale is not None or seed is not None:
                raise TypeError("pass either params= or scale=/seed=, not both")
        else:
            params = ScenarioParams(
                scale="small" if scale is None else scale,
                seed=0 if seed is None else seed,
            )
        self.params = params
        self.seed = params.seed
        self.config = _config(params.scale, params.seed)
        self.cache = cache if cache is not None else ArtifactCache()
        self.report = RunReport()
        self._artifact_cache: dict[str, object] = {}
        self._params_digest = params_digest(self.config)

    # -- engine plumbing ---------------------------------------------------
    def stage_key(self, name: str) -> StageKey:
        """The content-addressed cache key of one stage of this scenario."""
        return StageKey(
            stage=name,
            scale=self.params.scale,
            seed=self.params.seed,
            params=self._params_digest,
            code=code_version(),
        )

    def _materialise(self, name: str, build):
        """In-memory memo → disk cache → build (recording a StageRecord).

        Each materialisation runs inside a ``stage.<name>`` span; the
        recorded wall time is the span's *exclusive* time, so a stage
        that recursed into its dependencies reports only its own share
        and the report's stage times sum to true wall time.
        """
        memo = self._artifact_cache
        if name in memo:
            return memo[name]
        if trace.enabled and tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        with trace.span(
            f"stage.{name}",
            kind="stage",
            stage=name,
            scale=self.params.scale,
            seed=self.params.seed,
        ) as span:
            slow = faults.maybe_fire("slow_stage", name)
            if slow is not None:
                time.sleep(slow.delay())
            key = self.stage_key(name)
            hit, value = self.cache.load(key)
            size = self.cache.size_of(key) if hit else None
            if not hit:
                # Single-flight across processes: take the per-key lock,
                # then re-check — the usual reason it was held is that a
                # concurrent invocation was building exactly this stage.
                with self.cache.lock(key):
                    hit, value = self.cache.load(key)
                    if hit:
                        size = self.cache.size_of(key)
                    else:
                        value = build(self)
                        size = self.cache.store(key, value)
            memo[name] = value
            span.set(cache_hit=hit, size_bytes=size)
            metrics.counter("engine.stages.built.total").inc()
            if hit:
                metrics.counter("engine.stages.cache_hits.total").inc()
            rss = rss_peak_bytes()
            if rss is not None:
                metrics.gauge("engine.stage.peak_rss.bytes").set_max(rss)
                span.set(rss_peak_bytes=rss)
            if trace.enabled and tracemalloc.is_tracing():
                span.set(py_peak_bytes=tracemalloc.get_traced_memory()[1])
        self.report.add_stage(StageRecord.from_span(span))
        _log.debug(
            "stage %s: %s in %.3fs (scale=%s seed=%d)",
            name, "hit" if hit else "built", span.dur_s, self.params.scale, self.params.seed,
        )
        return value

    def prepare(self, stages: list[str] | None = None) -> RunReport:
        """Materialise stages up front (all of them by default).

        Warms both the in-memory memo and the on-disk cache, so a
        subsequent process pool — or a later CLI invocation — finds
        every substrate ready.  Returns ``self.report``.
        """
        for name in STAGES if stages is None else stages:
            getattr(self, name)
        return self.report

    # -- substrate ---------------------------------------------------------
    @_stage
    def internet(self) -> GeneratedInternet:
        from ..topology import build_internet
        from ..users import build_world

        world = build_world(
            seed=self.seed,
            total_population=self.config.total_population,
            region_scale=self.config.region_scale,
        )
        return build_internet(world, self.config.topology)

    @_stage
    def user_base(self) -> UserBase:
        from ..users import build_user_base

        return build_user_base(self.internet, seed=self.seed + 1)

    @_stage
    def recursives(self) -> RecursivePopulation:
        from ..users import build_recursives

        return build_recursives(self.internet, self.user_base, seed=self.seed + 2)

    @_stage
    def zone(self) -> RootZone:
        from ..dns import RootZone

        return RootZone(n_tlds=self.config.n_tlds, seed=self.seed + 3)

    @_stage
    def universe(self) -> DomainUniverse:
        from ..dns import DomainUniverse

        return DomainUniverse(self.zone, n_domains=self.config.n_domains, seed=self.seed + 4)

    # -- deployments ---------------------------------------------------------
    @_stage
    def letters_2018(self) -> dict[str, IndependentDeployment]:
        from ..anycast import LETTERS_2018, build_root_system

        return build_root_system(self.internet, LETTERS_2018, seed=self.seed + 5)

    @_stage
    def letters_2020(self) -> dict[str, IndependentDeployment]:
        from ..anycast import LETTERS_2020, build_root_system

        return build_root_system(self.internet, LETTERS_2020, seed=self.seed + 6)

    @_stage
    def cdn(self) -> CdnSystem:
        from ..anycast import CdnSpec, build_cdn

        return build_cdn(self.internet, CdnSpec(), seed=self.seed + 7)

    # -- datasets --------------------------------------------------------------
    @_stage
    def capture_2018(self) -> DitlCapture:
        from ..ditl import generate_ditl

        return generate_ditl(
            self.internet, self.letters_2018, self.recursives, self.zone,
            year=2018, seed=self.seed + 8,
        )

    @_stage
    def filtered_2018(self) -> FilteredDitl:
        from ..ditl import preprocess

        return preprocess(self.capture_2018)

    @_stage
    def capture_2020(self) -> DitlCapture:
        from ..ditl import generate_ditl

        return generate_ditl(
            self.internet, self.letters_2020, self.recursives, self.zone,
            year=2020, seed=self.seed + 9,
        )

    @_stage
    def filtered_2020(self) -> FilteredDitl:
        from ..ditl import preprocess

        return preprocess(self.capture_2020)

    @_stage
    def cdn_counts(self) -> CdnUserCounts:
        from ..users import build_cdn_counts

        return build_cdn_counts(self.recursives, seed=self.seed + 10)

    @_stage
    def apnic_counts(self) -> ApnicUserCounts:
        from ..users import build_apnic_counts

        return build_apnic_counts(
            self.user_base, seed=self.seed + 11, cloud_asns=self.internet.cloud_asns
        )

    @_stage
    def geolocator(self) -> Geolocator:
        from ..measurement import Geolocator

        return Geolocator(self.internet.world, self.recursives, seed=self.seed + 12)

    @_stage
    def mapper(self) -> IpToAsnMapper:
        from ..net import IpToAsnMapper

        return IpToAsnMapper(self.internet.plan, seed=self.seed + 13)

    @_stage
    def _join_2018(self) -> tuple[list[JoinedRecursive], JoinStats]:
        from ..ditl import join_ditl_cdn

        return join_ditl_cdn(
            self.filtered_2018, self.cdn_counts, self.geolocator, self.mapper,
            by_slash24=True,
        )

    @property
    def joined_2018(self) -> list[JoinedRecursive]:
        return self._join_2018[0]

    @property
    def join_stats_2018(self) -> JoinStats:
        return self._join_2018[1]

    @_stage
    def _join_2018_ip(self) -> tuple[list[JoinedRecursive], JoinStats]:
        from ..ditl import join_ditl_cdn

        return join_ditl_cdn(
            self.filtered_2018, self.cdn_counts, self.geolocator, self.mapper,
            by_slash24=False,
        )

    @property
    def joined_2018_ip(self) -> list[JoinedRecursive]:
        return self._join_2018_ip[0]

    @property
    def join_stats_2018_ip(self) -> JoinStats:
        return self._join_2018_ip[1]

    @_stage
    def _join_2020(self) -> tuple[list[JoinedRecursive], JoinStats]:
        from ..ditl import join_ditl_cdn

        return join_ditl_cdn(
            self.filtered_2020, self.cdn_counts, self.geolocator, self.mapper,
            by_slash24=True,
        )

    @property
    def joined_2020(self) -> list[JoinedRecursive]:
        return self._join_2020[0]

    @_stage
    def _volumes_2018(self) -> tuple[dict[int, float], float]:
        from ..ditl import volumes_by_asn

        return volumes_by_asn(self.filtered_2018, self.mapper)

    @property
    def asn_volumes_2018(self) -> dict[int, float]:
        return self._volumes_2018[0]

    # -- measurement platforms ---------------------------------------------------
    @_stage
    def atlas(self) -> AtlasPlatform:
        from ..measurement import AtlasPlatform

        return AtlasPlatform(self.internet, n_probes=self.config.n_probes, seed=self.seed + 14)

    @_stage
    def server_logs(self) -> ServerSideLogs:
        from ..measurement import collect_server_logs

        return collect_server_logs(
            self.cdn, self.user_base,
            samples_per_location=self.config.serverlog_samples, seed=self.seed + 15,
        )

    @_stage
    def client_measurements(self) -> ClientSideMeasurements:
        from ..measurement import collect_client_measurements

        return collect_client_measurements(
            self.cdn, self.user_base,
            samples_per_location=self.config.clientside_samples, seed=self.seed + 16,
        )

    # -- DNS local views ------------------------------------------------------------
    @_stage
    def isi_result(self):
        from ..dns import IsiResolverExperiment

        return IsiResolverExperiment(
            self.zone, self.universe, self.root_latency_model,
            n_users=self.config.isi_users, days=self.config.isi_days,
            buggy=True, seed=self.seed + 17,
        ).run()

    @_stage
    def author_result(self):
        from ..dns import AuthorMachineExperiment

        return AuthorMachineExperiment(
            self.zone, self.universe, self.root_latency_model,
            days=self.config.author_days, seed=self.seed + 18,
        ).run()

    @_stage
    def root_latency_model(self) -> StaticRootLatency:
        """Per-letter RTTs as seen from a mid-European eyeball (the ISI
        stand-in's vantage), used by the packet-level resolver sims."""
        from ..dns import StaticRootLatency

        letters = self.letters_2018
        probe = self.atlas.probes[0]
        base = {}
        for name, deployment in letters.items():
            flow = deployment.resolve(probe.asn, probe.region_id)
            base[name] = flow.base_rtt_ms if flow else 250.0
        return StaticRootLatency(base)


@functools.lru_cache(maxsize=4)
def default_scenario(scale: str = "small", seed: int = 0) -> Scenario:
    """Shared scenario instances (tests and benches reuse these)."""
    return Scenario(scale=scale, seed=seed)


SCALES = ("small", "medium")
