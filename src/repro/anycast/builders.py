"""Deployment construction: site placement and attachment synthesis.

Root letters and the CDN are both built from the same primitives —
sample site regions under a placement policy, then attach each site to
the topology (transit, peering, or scoped/local hosting).  The policies
encode what §7.3 of the paper attributes to incentives: letters place
sites wherever operators/volunteers are, while the CDN collocates
front-ends with its peering fabric near user mass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..bgp import Attachment
from ..geo import make_rng
from ..obs import trace
from ..topology import ASKind, GeneratedInternet, Relationship
from ..topology.graph import Topology
from .batch import ResolvedBatch
from .cdn import CdnFabric, CdnRing
from .deployment import IndependentDeployment
from .site import Site

__all__ = ["LetterSpec", "build_letter", "CdnSpec", "CdnSystem", "build_cdn"]

#: Continent weight profiles for site placement.
PLACEMENTS: dict[str, dict[str, float]] = {
    "population": {},  # empty = every continent weighted by population alone
    "na": {"North America": 1.0},
    "na_eu": {"North America": 1.0, "Europe": 0.9},
    "eu": {"Europe": 1.0, "North America": 0.25, "Asia": 0.15},
    "asia": {"Asia": 1.0, "North America": 0.3, "Europe": 0.2},
    "open_hosting": {
        # volunteers everywhere, less correlated with population mass
        "North America": 1.0, "Europe": 1.0, "Asia": 1.0, "Africa": 1.0,
        "South America": 1.0, "Oceania": 1.0,
    },
}


@dataclass(frozen=True, slots=True)
class LetterSpec:
    """Deployment recipe for one root letter."""

    letter: str
    n_global: int
    n_local: int
    placement: str
    peer_fraction: float = 0.2
    peers_per_site: int = 4
    transits_per_site: int = 1
    tcp_ok: bool = True  # False models the letters with malformed DITL pcaps
    origin_asn: int = 0

    def __post_init__(self) -> None:
        if self.placement not in PLACEMENTS:
            raise ValueError(f"unknown placement {self.placement!r}")
        if self.n_global < 1:
            raise ValueError(f"{self.letter}: need at least one global site")
        if not 0.0 <= self.peer_fraction <= 1.0:
            raise ValueError(f"{self.letter}: peer_fraction out of range")


def _placement_weights(internet: GeneratedInternet, placement: str, alpha: float) -> np.ndarray:
    """Per-region sampling weights: population^alpha × continent profile."""
    world = internet.world
    populations = world.populations().astype(float)
    weights = populations**alpha
    profile = PLACEMENTS[placement]
    if profile:
        multipliers = np.array(
            [profile.get(region.continent, 0.0) for region in world.regions]
        )
        weights = weights * multipliers
    if placement == "open_hosting":
        # open hosting decorrelates from population: flatten the tail
        weights = np.sqrt(weights) + weights.mean() * 0.2
    if weights.sum() <= 0:
        raise ValueError(f"placement {placement!r} selects no regions in this world")
    return weights / weights.sum()


def sample_site_regions(
    internet: GeneratedInternet,
    count: int,
    placement: str,
    rng: np.random.Generator,
    alpha: float = 0.7,
) -> list[int]:
    """Sample site regions; distinct regions first, dense metros after.

    When ``count`` exceeds the eligible regions we reuse the densest
    regions — real deployments run several sites per large metro.
    """
    probabilities = _placement_weights(internet, placement, alpha)
    eligible = int((probabilities > 0).sum())
    distinct = min(count, eligible)
    chosen = list(
        rng.choice(len(probabilities), size=distinct, replace=False, p=probabilities)
    )
    while len(chosen) < count:
        chosen.append(int(rng.choice(len(probabilities), p=probabilities)))
    return [int(region) for region in chosen]


def _hosting_transits(
    topology: Topology, region_id: int, rng: np.random.Generator, count: int
) -> list[int]:
    """Transit ASes to buy service from at a site (nearest fallback)."""
    local = topology.transits_in_region(region_id)
    if local:
        size = min(count, len(local))
        return [int(a) for a in rng.choice(local, size=size, replace=False)]
    # No transit PoP in this region: buy from the transit whose nearest
    # PoP is closest (common for sites in sparsely served regions).
    world = topology.world
    here = world.region(region_id).location
    candidates = topology.ases_of_kind(ASKind.TRANSIT) + topology.ases_of_kind(ASKind.TIER1)
    best = min(
        candidates,
        key=lambda asn: world.region(
            topology.node(asn).nearest_pop(here, world)
        ).location.distance_km(here),
    )
    return [best]


def _site_peers(
    internet: GeneratedInternet,
    region_id: int,
    rng: np.random.Generator,
    count: int,
    reach_km: float = 1_500.0,
) -> list[int]:
    """Open-peering partners at the site's IXP (openness-weighted).

    IXP LANs extend beyond one metro via remote peering, so when the
    site's own region cannot fill ``count`` partners we draw from nearby
    regions too — this is how CDN-partnered letters reach many eyeballs
    directly.
    """
    topology = internet.topology
    world = internet.world
    here = world.region(region_id).location

    def members_of(region: int) -> list[int]:
        return [
            asn
            for asn in topology.ases_in_region(region)
            if topology.node(asn).kind in (ASKind.EYEBALL, ASKind.TRANSIT)
        ]

    members = members_of(region_id)
    if len(members) < count:
        nearby = sorted(
            (
                r.region_id
                for r in world.regions
                if r.region_id != region_id and r.location.distance_km(here) <= reach_km
            ),
            key=lambda r: world.region(r).location.distance_km(here),
        )
        for region in nearby:
            members.extend(m for m in members_of(region) if m not in members)
            if len(members) >= count * 3:
                break
    if not members:
        return []
    willing = [asn for asn in members if rng.uniform() < topology.node(asn).openness]
    rng.shuffle(willing)
    return willing[:count]


def build_letter(
    internet: GeneratedInternet, spec: LetterSpec, seed: int = 0
) -> IndependentDeployment:
    """Build one root letter as an :class:`IndependentDeployment`."""
    rng = make_rng(seed, f"letter:{spec.letter}")
    regions = sample_site_regions(internet, spec.n_global, spec.placement, rng)
    sites: list[Site] = []
    attachments: list[Attachment] = []
    site_of_attachment: dict[int, int] = {}
    next_attachment = 0

    def attach(site_id: int, host: int, role: Relationship, region: int, local: bool) -> None:
        nonlocal next_attachment
        attachments.append(
            Attachment(
                attachment_id=next_attachment,
                host_asn=host,
                origin_role=role,
                region_id=region,
                local=local,
            )
        )
        site_of_attachment[next_attachment] = site_id
        next_attachment += 1

    for index, region_id in enumerate(regions):
        site = Site(site_id=index, region_id=region_id,
                    name=f"{spec.letter}{index:03d}", is_global=True)
        sites.append(site)
        hosts = _hosting_transits(internet.topology, region_id, rng, spec.transits_per_site)
        for host in hosts:
            attach(site.site_id, host, Relationship.CUSTOMER, region_id, local=False)
        if rng.uniform() < spec.peer_fraction:
            for peer in _site_peers(internet, region_id, rng, spec.peers_per_site):
                if peer in hosts:
                    continue
                attach(site.site_id, peer, Relationship.PEER, region_id, local=False)

    # Local sites: volunteer hosting, announcement scoped to the host cone.
    local_regions = sample_site_regions(
        internet, spec.n_local, "open_hosting", rng
    ) if spec.n_local else []
    for offset, region_id in enumerate(local_regions):
        site_id = spec.n_global + offset
        sites.append(Site(site_id=site_id, region_id=region_id,
                          name=f"{spec.letter}L{offset:03d}", is_global=False))
        candidates = internet.topology.ases_in_region(region_id)
        host = int(rng.choice(candidates)) if candidates else _hosting_transits(
            internet.topology, region_id, rng, 1
        )[0]
        attach(site_id, host, Relationship.CUSTOMER, region_id, local=True)

    return IndependentDeployment(
        topology=internet.topology,
        name=f"{spec.letter} root",
        origin_asn=spec.origin_asn,
        sites=tuple(sites),
        attachments=attachments,
        site_of_attachment=site_of_attachment,
        seed=seed,
    )


@dataclass(frozen=True, slots=True)
class CdnSpec:
    """Deployment recipe for the CDN fabric and its rings."""

    ring_sizes: tuple[int, ...] = (28, 47, 74, 95, 110)
    origin_asn: int = 8075
    eyeball_peering_reach: float = 0.88
    transit_peering_prob: float = 0.85
    tier1_pops_each: int = 8
    te_quality: float = 0.65
    te_threshold_km: float = 1200.0

    def __post_init__(self) -> None:
        if tuple(sorted(self.ring_sizes)) != tuple(self.ring_sizes):
            raise ValueError("ring sizes must be ascending (nested rings)")
        if not self.ring_sizes:
            raise ValueError("need at least one ring")


@dataclass(slots=True)
class CdnSystem:
    """The built CDN: fabric plus nested rings keyed ``R<n>``."""

    fabric: CdnFabric
    rings: dict[str, CdnRing] = field(default_factory=dict)

    @property
    def ring_names(self) -> list[str]:
        return list(self.rings)

    def ring(self, name: str) -> CdnRing:
        return self.rings[name]

    @property
    def largest_ring(self) -> CdnRing:
        return self.rings[self.ring_names[-1]]

    def resolve_many(self, asns, regions) -> dict[str, "ResolvedBatch"]:
        """Resolve a whole client population against every ring at once.

        Ingress is shared across rings (§2.2: one fabric announcement),
        so the BGP/TE part of the batch is computed once and only the
        per-ring WAN leg differs.  Returns ``{ring_name: ResolvedBatch}``
        with rows aligned to the inputs.
        """
        with trace.span("cdn.resolve_many", rings=len(self.rings)) as span:
            shared_ingress = self.fabric.ingress_many(asns, regions)
            span.set(rows=len(shared_ingress.asns))
            return {
                name: ring._resolve_batch(
                    shared_ingress.asns, shared_ingress.region_ids,
                    ingress_batch=shared_ingress,
                )
                for name, ring in self.rings.items()
            }


def build_cdn(internet: GeneratedInternet, spec: CdnSpec | None = None, seed: int = 0) -> CdnSystem:
    """Build the CDN fabric (PoPs = largest-ring sites) and its rings."""
    spec = spec or CdnSpec()
    rng = make_rng(seed, "cdn")
    topology = internet.topology
    world = internet.world

    n_pops = spec.ring_sizes[-1]
    pop_regions = sample_site_regions(internet, n_pops, "population", rng, alpha=1.0)
    # Densest markets first so ring R<k> (the first k PoPs) is the
    # highest-value metro subset, as in the paper's Fig. 1.
    pop_regions.sort(key=lambda region: world.region(region).population, reverse=True)
    pops = tuple(
        Site(site_id=i, region_id=region, name=f"PoP{i:03d}", is_global=True)
        for i, region in enumerate(pop_regions)
    )
    pop_lats = np.array([world.region(p.region_id).location.lat for p in pops])
    pop_lons = np.array([world.region(p.region_id).location.lon for p in pops])
    pop_by_region: dict[int, list[int]] = {}
    for pop in pops:
        pop_by_region.setdefault(pop.region_id, []).append(pop.site_id)

    attachments: list[Attachment] = []
    pop_of_attachment: dict[int, int] = {}
    next_attachment = 0

    def attach(pop_id: int, host: int) -> None:
        nonlocal next_attachment
        attachments.append(
            Attachment(
                attachment_id=next_attachment,
                host_asn=host,
                origin_role=Relationship.PEER,
                region_id=pops[pop_id].region_id,
            )
        )
        pop_of_attachment[next_attachment] = pop_id
        next_attachment += 1

    nearest_pop_of_region = world.distances_to_points_km(pop_lats, pop_lons).argmin(axis=1)

    # Tier-1s interconnect at several PoPs (their footprint ∩ our PoPs).
    for asn in topology.ases_of_kind(ASKind.TIER1):
        shared = [
            pop_by_region[r][0] for r in topology.node(asn).region_ids if r in pop_by_region
        ]
        if not shared:
            shared = [int(nearest_pop_of_region[topology.node(asn).home_region])]
        for pop_id in shared[: spec.tier1_pops_each]:
            attach(pop_id, asn)

    # Transits peer where collocated (usually), at up to a few PoPs.
    for asn in topology.ases_of_kind(ASKind.TRANSIT):
        if rng.uniform() >= spec.transit_peering_prob:
            continue
        shared = [
            pop_by_region[r][0] for r in topology.node(asn).region_ids if r in pop_by_region
        ]
        if not shared:
            shared = [int(nearest_pop_of_region[topology.node(asn).home_region])]
        for pop_id in shared[:4]:
            attach(pop_id, asn)

    # Eyeballs peer directly with probability scaled by their openness.
    # The interconnect usually lands at the nearest PoP, but remote
    # peering over IXP fabrics often terminates a metro or two away —
    # one source of the residual inflation Fig. 5 shows.
    pop_distance_order = np.argsort(
        world.distances_to_points_km(pop_lats, pop_lons), axis=1
    )
    for asn in topology.ases_of_kind(ASKind.EYEBALL):
        openness = topology.node(asn).openness
        if rng.uniform() < spec.eyeball_peering_reach * (0.4 + 0.6 * openness):
            home = topology.node(asn).home_region
            rank = 0 if rng.uniform() < 0.72 else int(rng.integers(1, 4))
            pop_region_index = int(pop_distance_order[home][rank])
            attach(int(pop_region_index), asn)

    # Clouds peer everywhere they are collocated.
    for asn in topology.ases_of_kind(ASKind.CLOUD):
        shared = [
            pop_by_region[r][0] for r in topology.node(asn).region_ids if r in pop_by_region
        ]
        if not shared:
            shared = [int(nearest_pop_of_region[topology.node(asn).home_region])]
        for pop_id in shared[:4]:
            attach(pop_id, asn)

    fabric = CdnFabric(
        topology=topology,
        origin_asn=spec.origin_asn,
        pops=pops,
        attachments=attachments,
        pop_of_attachment=pop_of_attachment,
        te_quality=spec.te_quality,
        te_threshold_km=spec.te_threshold_km,
        seed=seed,
    )

    # Rings: nested prefixes of the PoP list.  PoPs were sampled densest
    # regions first (population-ordered within the distinct block), so the
    # smallest ring is the highest-value metro subset, as in Fig. 1.
    system = CdnSystem(fabric=fabric)
    for size in spec.ring_sizes:
        size = min(size, len(pops))
        system.rings[f"R{size}"] = CdnRing(
            fabric, f"R{size}", tuple(range(size))
        )
    return system
