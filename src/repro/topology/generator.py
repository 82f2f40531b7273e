"""Synthetic AS-topology generator.

Builds a three-tier policy topology over a :class:`~repro.users.world.World`:

* a clique of tier-1 backbones with PoPs across the most-populous regions,
* continental transit providers (customers of several tier-1s, peering
  with each other at shared IXP regions),
* eyeball/access ASes homed in single regions (customers of local
  transits, occasionally multihomed, occasionally peering openly at the
  local IXP),
* a few globally present cloud operators (hosting public DNS recursives).

The generated relationships follow Gao–Rexford semantics and are consumed
by :mod:`repro.bgp`.  Every eyeball and cloud AS receives IPv4 space from
an :class:`~repro.net.asn.AddressPlan`, which later gives recursives and
spoofed sources concrete addresses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from typing import TYPE_CHECKING

from ..geo import make_rng
from ..net import AddressPlan
from .graph import AsNode, Topology

if TYPE_CHECKING:  # avoid a users↔topology import cycle at runtime
    from ..users.world import World
from .kinds import ASKind, Relationship
from .orgs import OrgTable
from .params import TopologyParams

__all__ = ["GeneratedInternet", "build_internet"]

_TIER1_BASE_ASN = 100
_CLOUD_BASE_ASN = 500
_TRANSIT_BASE_ASN = 1_000
_EYEBALL_BASE_ASN = 10_000


@dataclass(slots=True)
class GeneratedInternet:
    """Bundle returned by :func:`build_internet`."""

    world: World
    topology: Topology
    plan: AddressPlan
    orgs: OrgTable
    params: TopologyParams

    @property
    def eyeball_asns(self) -> list[int]:
        return self.topology.ases_of_kind(ASKind.EYEBALL)

    @property
    def cloud_asns(self) -> list[int]:
        return self.topology.ases_of_kind(ASKind.CLOUD)


def _footprint(
    rng: np.random.Generator,
    candidate_regions: list[int],
    weights: np.ndarray,
    count: int,
    home: int | None = None,
) -> tuple[int, ...]:
    """Sample a PoP footprint (population-weighted, without replacement)."""
    count = min(count, len(candidate_regions))
    if count <= 0:
        raise ValueError("footprint must contain at least one region")
    probabilities = weights / weights.sum()
    chosen = rng.choice(len(candidate_regions), size=count, replace=False, p=probabilities)
    regions = [candidate_regions[i] for i in chosen]
    if home is not None:
        if home in regions:
            regions.remove(home)
        regions.insert(0, home)
    return tuple(regions)


def build_internet(
    world: World,
    params: TopologyParams | None = None,
    plan: AddressPlan | None = None,
) -> GeneratedInternet:
    """Generate the synthetic Internet over ``world``."""
    params = params or TopologyParams()
    plan = plan or AddressPlan()
    rng = make_rng(params.seed, "topology")
    topology = Topology(world)
    orgs = OrgTable()

    populations = world.populations().astype(float)
    all_regions = list(range(len(world)))

    # --- tier-1 backbones -------------------------------------------------
    tier1_asns: list[int] = []
    tier1_regions = [r.region_id for r in world.top_regions(max(3, int(len(world) * 0.6)))]
    tier1_weights = populations[tier1_regions]
    footprint_size = max(2, int(len(world) * params.tier1_footprint_fraction))
    for index in range(params.n_tier1):
        asn = _TIER1_BASE_ASN + index
        regions = _footprint(rng, tier1_regions, tier1_weights, footprint_size)
        topology.add_as(
            AsNode(asn=asn, kind=ASKind.TIER1, name=f"Backbone-{index}", region_ids=regions,
                   openness=1.0)
        )
        plan.register(asn, f"Backbone-{index}")
        plan.allocate_slash16(asn)
        tier1_asns.append(asn)
    for i, a in enumerate(tier1_asns):
        for b in tier1_asns[i + 1:]:
            topology.add_link(a, b, Relationship.PEER)

    # --- continental transit providers ------------------------------------
    transit_asns: list[int] = []
    transit_by_continent: dict[str, list[int]] = {}
    next_transit = _TRANSIT_BASE_ASN
    for continent in sorted({r.continent for r in world.regions}):
        regions = [r.region_id for r in world.by_continent(continent)]
        if not regions:
            continue
        weights = populations[regions]
        n_transit = max(1, round(len(regions) / params.regions_per_transit))
        footprint = max(1, int(len(regions) * params.transit_footprint_fraction))
        for _ in range(n_transit):
            asn = next_transit
            next_transit += 1
            pops = _footprint(rng, regions, weights, footprint)
            topology.add_as(
                AsNode(asn=asn, kind=ASKind.TRANSIT, name=f"Transit-{continent[:2]}-{asn}",
                       region_ids=pops, openness=float(rng.beta(3.0, 2.0)))
            )
            plan.register(asn, f"Transit-{asn}")
            plan.allocate_slash16(asn)
            n_providers = int(rng.integers(2, min(4, len(tier1_asns)) + 1))
            for provider in rng.choice(tier1_asns, size=n_providers, replace=False):
                topology.add_link(asn, int(provider), Relationship.PROVIDER)
            transit_asns.append(asn)
            transit_by_continent.setdefault(continent, []).append(asn)

    # transit peering: same-continent pairs sharing a region peer with high
    # probability (an IXP), distant pairs rarely.
    for i, a in enumerate(transit_asns):
        regions_a = set(topology.node(a).region_ids)
        continent_a = world.region(topology.node(a).home_region).continent
        for b in transit_asns[i + 1:]:
            continent_b = world.region(topology.node(b).home_region).continent
            shares_region = bool(regions_a & set(topology.node(b).region_ids))
            if shares_region and continent_a == continent_b:
                probability = params.transit_peer_prob
            else:
                probability = params.cross_continent_transit_peer_prob
            if rng.uniform() < probability:
                topology.add_link(a, b, Relationship.PEER)

    # --- cloud operators ----------------------------------------------------
    cloud_footprint = max(2, int(len(world) * params.cloud_footprint_fraction))
    for index in range(params.n_cloud):
        asn = _CLOUD_BASE_ASN + index
        regions = _footprint(rng, tier1_regions, tier1_weights, cloud_footprint)
        topology.add_as(
            AsNode(asn=asn, kind=ASKind.CLOUD, name=f"Cloud-{index}", region_ids=regions,
                   openness=0.95)
        )
        plan.register(asn, f"Cloud-{index}")
        plan.allocate_slash16(asn)
        for provider in rng.choice(tier1_asns, size=min(3, len(tier1_asns)), replace=False):
            topology.add_link(asn, int(provider), Relationship.PROVIDER)
        # Clouds peer with transits where collocated.
        for transit in transit_asns:
            if set(regions) & set(topology.node(transit).region_ids) and rng.uniform() < 0.5:
                topology.add_link(asn, transit, Relationship.PEER)

    # --- eyeball ASes -------------------------------------------------------
    eyeball_count_by_region = rng.poisson(params.eyeballs_per_region_mean, size=len(world))
    next_eyeball = _EYEBALL_BASE_ASN
    for region_id in all_regions:
        count = max(1, int(eyeball_count_by_region[region_id]))
        continent = world.region(region_id).continent
        local_transits = [
            t for t in transit_by_continent.get(continent, []) if region_id in topology.node(t).region_ids
        ]
        fallback_transits = transit_by_continent.get(continent, []) or transit_asns
        for _ in range(count):
            asn = next_eyeball
            next_eyeball += 1
            topology.add_as(
                AsNode(asn=asn, kind=ASKind.EYEBALL, name=f"Eyeball-{asn}",
                       region_ids=(region_id,), openness=float(rng.beta(2.0, 2.5)))
            )
            plan.register(asn, f"Eyeball-{asn}")
            plan.allocate_slash16(asn)
            candidates = local_transits or fallback_transits
            provider = int(rng.choice(candidates))
            topology.add_link(asn, provider, Relationship.PROVIDER)
            if rng.uniform() < params.eyeball_multihome_prob:
                others = [t for t in candidates if t != provider] or [
                    t for t in transit_asns if t != provider
                ]
                if others:
                    topology.add_link(asn, int(rng.choice(others)), Relationship.PROVIDER)

    # eyeball open peering at the local IXP (mostly matters as noise).
    for region_id in all_regions:
        local = [
            asn for asn in topology.ases_in_region(region_id)
            if topology.node(asn).kind is ASKind.EYEBALL
        ]
        for i, a in enumerate(local):
            for b in local[i + 1:]:
                joint = topology.node(a).openness * topology.node(b).openness
                if rng.uniform() < params.eyeball_ixp_peer_prob * joint:
                    topology.add_link(a, b, Relationship.PEER)

    # --- organizations / siblings -------------------------------------------
    org_id = 1
    for asn in list(topology.nodes):
        orgs.assign(asn, org_id)
        topology.node(asn).org_id = org_id
        org_id += 1
    sibling_pool = [t for t in transit_asns if rng.uniform() < params.sibling_fraction]
    for asn in sibling_pool:
        sibling = next_transit
        next_transit += 1
        parent = topology.node(asn)
        topology.add_as(
            AsNode(asn=sibling, kind=ASKind.TRANSIT, name=f"{parent.name}-sib",
                   region_ids=parent.region_ids, openness=parent.openness,
                   org_id=parent.org_id)
        )
        plan.register(sibling, f"{parent.name}-sib")
        plan.allocate_slash16(sibling)
        orgs.assign(sibling, parent.org_id or sibling)
        topology.add_link(sibling, asn, Relationship.PROVIDER)

    topology.validate()
    return GeneratedInternet(world=world, topology=topology, plan=plan, orgs=orgs, params=params)
