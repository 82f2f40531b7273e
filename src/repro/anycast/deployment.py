"""Anycast deployments: the common interface and independent-sites model.

A :class:`Deployment` answers the two questions the whole analysis
pipeline asks:

* ``resolve_many(asns, regions)`` — which site serves each client,
  through how many AS hops, and at what baseline RTT, for a whole
  population at once (the primary, columnar API);
* ``min_global_distance_km(region_id)`` — distance to the closest
  *global* site, the lower bound both inflation equations use.

The scalar ``resolve(client_asn, region_id)`` remains as a thin
compatibility wrapper over a one-element batch, returning the same
:class:`ServedFlow` (site, AS path, waypoints, baseline RTT) it always
has.

:class:`IndependentDeployment` models the root-letter style: every site
is independently attached to the Internet (transit and/or peering) and
the BGP catchment terminates directly at the site.  The CDN backbone
style lives in :mod:`repro.anycast.cdn`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..bgp import Attachment, RoutingTable, propagate, resolve_flow
from ..geo import GeoPoint, optimal_rtt_ms, path_rtt_ms
from ..geo.latency import SPEED_OF_LIGHT_FIBER_KM_PER_MS
from ..obs import trace
from ..topology.graph import Topology
from .batch import FlowKernel, ResolvedBatch, _as_index_arrays, region_distance_matrix
from .site import Site

__all__ = ["ServedFlow", "Deployment", "IndependentDeployment"]

#: Multiplicative fiber-route stretch on the public Internet.
EXTERNAL_STRETCH = 1.2
#: Per-AS-hop round-trip processing cost on the public Internet, ms.
EXTERNAL_HOP_COST_MS = 1.0


@dataclass(frozen=True, slots=True)
class ServedFlow:
    """How a client is served: site, AS path, geometry, baseline RTT."""

    site: Site
    as_path: tuple[int, ...]
    waypoints: tuple[GeoPoint, ...]
    base_rtt_ms: float

    @property
    def as_hops(self) -> int:
        return len(self.as_path)

    def measured_rtt_ms(self, rng: np.random.Generator, jitter_frac: float = 0.05) -> float:
        """One noisy RTT sample around the deterministic baseline."""
        return self.base_rtt_ms * float(rng.lognormal(mean=0.0, sigma=jitter_frac))


class Deployment(abc.ABC):
    """Shared behaviour for anycast deployments over one topology."""

    def __init__(self, topology: Topology, name: str, origin_asn: int, sites: tuple[Site, ...]):
        if not sites:
            raise ValueError(f"deployment {name!r} has no sites")
        self.topology = topology
        self.name = name
        self.origin_asn = origin_asn
        self.sites = sites
        self._resolve_cache: dict[tuple[int, int], ServedFlow | None] = {}
        self._site_region_ids = np.array([s.region_id for s in sites], dtype=np.int32)
        global_sites = [s for s in sites if s.is_global]
        if not global_sites:
            raise ValueError(f"deployment {name!r} has no global sites")
        self._global_sites = tuple(global_sites)
        world = topology.world
        self._global_lats = np.array(
            [world.region(s.region_id).location.lat for s in global_sites]
        )
        self._global_lons = np.array(
            [world.region(s.region_id).location.lon for s in global_sites]
        )
        self._min_km_by_region: np.ndarray | None = None

    # -- geometry ----------------------------------------------------------
    @property
    def global_sites(self) -> tuple[Site, ...]:
        return self._global_sites

    @property
    def n_global_sites(self) -> int:
        return len(self._global_sites)

    @property
    def site_region_ids(self) -> np.ndarray:
        """Region id per site, aligned with ``sites`` (read-mostly)."""
        return self._site_region_ids

    def site(self, site_id: int) -> Site:
        return self.sites[site_id]

    def site_location(self, site_id: int) -> GeoPoint:
        return self.topology.world.region(self.sites[site_id].region_id).location

    def region_min_km(self) -> np.ndarray:
        """Per-region distance to the closest *global* site (Eq. 1/2 floor)."""
        if self._min_km_by_region is None:
            matrix = self.topology.world.distances_to_points_km(
                self._global_lats, self._global_lons
            )
            self._min_km_by_region = matrix.min(axis=1)
        return self._min_km_by_region

    def min_global_distance_km(self, region_id: int) -> float:
        """Distance from a region to its closest *global* site (Eq. 1/2)."""
        return float(self.region_min_km()[region_id])

    def min_global_distance_km_many(self, region_ids) -> np.ndarray:
        """Vectorised :meth:`min_global_distance_km` over a region column."""
        return self.region_min_km()[np.asarray(region_ids, dtype=np.int64)]

    def site_distance_km_many(self, region_ids, site_ids) -> np.ndarray:
        """Client-region → site great-circle km, row-wise over columns."""
        distances = region_distance_matrix(self.topology)
        site_regions = self._site_region_ids[np.asarray(site_ids, dtype=np.int64)]
        return distances[np.asarray(region_ids, dtype=np.int64), site_regions]

    def nearest_global_site(self, region_id: int) -> Site:
        matrix = self.topology.world.distances_to_points_km(
            self._global_lats, self._global_lons
        )
        return self._global_sites[int(matrix[region_id].argmin())]

    def coverage_fraction(self, radius_km: float) -> float:
        """Fraction of world user population within ``radius_km`` of a site."""
        populations = self.topology.world.populations().astype(float)
        covered = self.region_min_km() <= radius_km
        return float(populations[covered].sum() / populations.sum())

    # -- delta support ------------------------------------------------------
    @property
    def supports_delta(self) -> bool:
        """Whether :mod:`repro.anycast.delta` can patch this deployment.

        ``False`` by default; deployment styles that own their routing
        table and kernel outright (independently attached sites) opt in.
        Callers must fall back to a full rebuild when this is ``False``.
        """
        return False

    # -- service -----------------------------------------------------------
    def resolve_many(self, asns, regions) -> ResolvedBatch:
        """Resolve service for a whole population of clients at once.

        ``asns[i]``/``regions[i]`` describe one client; the returned
        :class:`ResolvedBatch` is aligned row-for-row with the inputs.
        This is the primary resolution API — the scalar :meth:`resolve`
        is a one-element wrapper around it.
        """
        asns, regions = _as_index_arrays(asns, regions)
        with trace.span("deployment.resolve_many", deployment=self.name, rows=len(asns)):
            return self._resolve_batch(asns, regions)

    def resolve(self, client_asn: int, region_id: int) -> ServedFlow | None:
        """Resolve service for a client of ``client_asn`` in ``region_id``.

        Returns ``None`` when the client AS holds no route (possible for
        purely local announcements).  Results are cached per
        ``(asn, region)`` — routing is stable over an analysis run, which
        also matches the site-affinity observation the paper confirms.
        """
        key = (client_asn, region_id)
        if key not in self._resolve_cache:
            self._resolve_cache[key] = self._resolve_one(client_asn, region_id)
        return self._resolve_cache[key]

    @abc.abstractmethod
    def _resolve_batch(self, asns: np.ndarray, regions: np.ndarray) -> ResolvedBatch:
        """Deployment-specific columnar resolution."""

    @abc.abstractmethod
    def _resolve_one(self, client_asn: int, region_id: int) -> ServedFlow | None:
        """Scalar resolution: a one-element batch, rehydrated."""


class IndependentDeployment(Deployment):
    """Root-letter style: independently attached sites, direct termination."""

    def __init__(
        self,
        topology: Topology,
        name: str,
        origin_asn: int,
        sites: tuple[Site, ...],
        attachments: list[Attachment],
        site_of_attachment: dict[int, int],
        seed: int = 0,
        *,
        routing: RoutingTable | None = None,
        kernel: FlowKernel | None = None,
    ):
        super().__init__(topology, name, origin_asn, sites)
        unknown = set(site_of_attachment.values()) - {s.site_id for s in sites}
        if unknown:
            raise ValueError(f"attachments reference unknown sites: {sorted(unknown)}")
        self.site_of_attachment = site_of_attachment
        self.seed = seed
        # The delta path (repro.anycast.delta) hands in a repaired routing
        # table and patched kernel instead of paying a fresh propagation;
        # both must describe exactly this announcement set.
        if routing is None:
            routing = propagate(topology, origin_asn, attachments, seed=seed)
        elif routing.origin_asn != origin_asn:
            raise ValueError(
                f"routing table is for AS{routing.origin_asn}, "
                f"deployment announces AS{origin_asn}"
            )
        self.routing: RoutingTable = routing
        self._kernel: FlowKernel | None = kernel
        self._site_of_attachment_arr: np.ndarray | None = None

    @property
    def supports_delta(self) -> bool:
        """Independently attached sites own their table: deltas apply."""
        return True

    @property
    def kernel(self) -> FlowKernel:
        """The deployment's batch flow resolver (built lazily)."""
        if self._kernel is None:
            self._kernel = FlowKernel(self.topology, self.routing)
        return self._kernel

    def _attachment_sites(self) -> np.ndarray:
        if self._site_of_attachment_arr is None:
            table = np.full(max(self.site_of_attachment) + 1, -1, dtype=np.int32)
            for attachment_id, site_id in self.site_of_attachment.items():
                table[attachment_id] = site_id
            self._site_of_attachment_arr = table
        return self._site_of_attachment_arr

    def _resolve_batch(self, asns: np.ndarray, regions: np.ndarray) -> ResolvedBatch:
        flows = self.kernel.resolve(asns, regions)
        ok = flows.ok
        site_ids = np.where(ok, self._attachment_sites()[flows.attachment_ids], -1)
        site_ids = site_ids.astype(np.int32)
        site_regions = np.where(ok, self._site_region_ids[site_ids], -1).astype(np.int32)
        # Same operation order as path_rtt_ms: optimal(total) * stretch
        # plus the per-hop cost, so the floats are bitwise identical.
        legs = np.maximum(flows.path_len - 2, 0) + 1
        base = (
            3.0 * flows.total_km / SPEED_OF_LIGHT_FIBER_KM_PER_MS
        ) * EXTERNAL_STRETCH + EXTERNAL_HOP_COST_MS * legs
        distances = region_distance_matrix(self.topology)
        site_km = np.where(
            ok, distances[regions, np.where(ok, site_regions, 0)], np.nan
        )
        return ResolvedBatch(
            asns=asns,
            region_ids=regions,
            ok=ok,
            site_ids=site_ids,
            site_region_ids=site_regions,
            as_hops=flows.path_len,
            base_rtt_ms=np.where(ok, base, np.nan),
            site_km=site_km,
            min_km=self.region_min_km()[regions],
        )

    def _resolve_one(self, client_asn: int, region_id: int) -> ServedFlow | None:
        flows = self.kernel.resolve(
            np.array([client_asn]), np.array([region_id]), want_chain=True
        )
        if not flows.ok[0]:
            return None
        world = self.topology.world
        site = self.sites[self._attachment_sites()[flows.attachment_ids[0]]]
        waypoints = (
            (world.region(region_id).location,)
            + tuple(world.region(r).location for r in flows.chains[0])
            + (world.region(int(flows.entry_region_ids[0])).location,)
        )
        legs = len(waypoints) - 1
        base = (
            3.0 * float(flows.total_km[0]) / SPEED_OF_LIGHT_FIBER_KM_PER_MS
        ) * EXTERNAL_STRETCH + EXTERNAL_HOP_COST_MS * legs
        return ServedFlow(
            site=site,
            as_path=self.routing.route(client_asn).path,
            waypoints=waypoints,
            base_rtt_ms=base,
        )

    def _resolve_reference(self, client_asn: int, region_id: int) -> ServedFlow | None:
        """The original scalar resolution, kept as the equivalence oracle.

        Walks :func:`resolve_flow` object by object; the batch kernel
        must reproduce it bitwise (tests/test_batch.py asserts this).
        """
        location = self.topology.world.region(region_id).location
        flow = resolve_flow(self.topology, self.routing, client_asn, location)
        if flow is None:
            return None
        site = self.sites[self.site_of_attachment[flow.attachment.attachment_id]]
        base = path_rtt_ms(
            flow.waypoints,
            rng=None,
            stretch=EXTERNAL_STRETCH,
            hop_cost_ms=EXTERNAL_HOP_COST_MS,
            jitter_frac=0.0,
        )
        return ServedFlow(
            site=site,
            as_path=flow.route.path,
            waypoints=flow.waypoints,
            base_rtt_ms=base,
        )

    def optimal_rtt_to_deployment_ms(self, region_id: int) -> float:
        """Eq. 2's achievable lower bound toward this deployment."""
        return optimal_rtt_ms(self.min_global_distance_km(region_id))
