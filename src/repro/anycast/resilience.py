"""Site-failure resilience drills.

Root operators told the paper (§7.3, Table 1) that *resilience* — DDoS
capacity and staying reachable when cut off — drives growth at least as
much as latency.  This module makes that analyzable: withdraw sites (or
a whole region's worth) from a deployment, recompute routing, and
measure what failures do to latency and to load concentration.

The mechanics mirror a real event: withdrawing a site withdraws its BGP
attachments, and the survivors' catchments absorb the traffic.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from ..bgp import Attachment
from ..users.population import UserBase
from .batch import ResolvedBatch
from .builders import CdnSystem
from .cdn import CdnFabric, CdnRing
from .deployment import Deployment, IndependentDeployment

__all__ = [
    "withdraw_sites",
    "fail_region",
    "fail_pops",
    "FailureImpact",
    "failure_impact",
    "batch_impact",
]


def withdraw_sites(
    deployment: IndependentDeployment,
    failed_site_ids: Iterable[int],
    seed: int | None = None,
) -> IndependentDeployment:
    """Rebuild a letter-style deployment without the failed sites.

    A thin composition of :func:`repro.anycast.delta.plan_withdraw` and
    the full-rebuild applier — deliberately *not* the delta path, since
    failure drills are the oracle side of the delta equivalence suite.
    Raises if site ids are unknown or no global site survives.
    """
    from .delta import plan_withdraw, rebuild

    return rebuild(deployment, plan_withdraw(deployment, failed_site_ids, seed=seed))


def fail_region(
    deployment: IndependentDeployment, region_id: int, seed: int | None = None
) -> IndependentDeployment:
    """Withdraw every site in one region (a metro-scale outage)."""
    failed = [s.site_id for s in deployment.sites if s.region_id == region_id]
    if not failed:
        raise ValueError(f"deployment has no site in region {region_id}")
    return withdraw_sites(deployment, failed, seed=seed)


def fail_pops(
    cdn: CdnSystem, failed_pop_ids: Iterable[int], seed: int | None = None
) -> CdnSystem:
    """Rebuild the CDN without the failed PoPs (fabric and all rings).

    Failing a PoP removes its peering/transit attachments *and* its
    front-end from every ring that contained it.  The tiebreak/TE seed
    defaults to the original fabric's so only the withdrawal changes.
    """
    failed = set(failed_pop_ids)
    fabric = cdn.fabric
    if seed is None:
        seed = fabric._seed
    unknown = failed - {p.site_id for p in fabric.pops}
    if unknown:
        raise ValueError(f"unknown pop ids: {sorted(unknown)}")
    survivors = [p for p in fabric.pops if p.site_id not in failed]
    if not survivors:
        raise ValueError("cannot fail every PoP")

    from .site import Site

    new_id_of_old = {p.site_id: i for i, p in enumerate(survivors)}
    new_pops = tuple(
        Site(site_id=i, region_id=p.region_id, name=p.name, is_global=True)
        for i, p in enumerate(survivors)
    )
    attachments: list[Attachment] = []
    pop_of_attachment: dict[int, int] = {}
    for attachment in fabric.routing.attachments.values():
        old_pop = fabric.pop_of_attachment[attachment.attachment_id]
        if old_pop in failed:
            continue
        attachments.append(attachment)
        pop_of_attachment[attachment.attachment_id] = new_id_of_old[old_pop]

    new_fabric = CdnFabric(
        topology=fabric.topology,
        origin_asn=fabric.origin_asn,
        pops=new_pops,
        attachments=attachments,
        pop_of_attachment=pop_of_attachment,
        te_quality=fabric.te_quality,
        te_threshold_km=fabric.te_threshold_km,
        seed=seed,
    )
    degraded = CdnSystem(fabric=new_fabric)
    for name, ring in cdn.rings.items():
        surviving_fes = tuple(
            new_id_of_old[pop_id]
            for pop_id in ring._front_end_pop_ids
            if pop_id not in failed
        )
        if surviving_fes:
            degraded.rings[name] = CdnRing(new_fabric, name, surviving_fes)
    return degraded


@dataclass(slots=True)
class FailureImpact:
    """Before/after comparison of one failure drill."""

    name: str
    users_measured: int
    users_rerouted: int
    median_rtt_before_ms: float
    median_rtt_after_ms: float
    p95_rtt_before_ms: float
    p95_rtt_after_ms: float
    #: largest share of users on any single site, before/after — the
    #: DDoS-capacity concentration question.
    max_site_share_before: float
    max_site_share_after: float

    @property
    def rerouted_fraction(self) -> float:
        return self.users_rerouted / self.users_measured if self.users_measured else 0.0

    @property
    def median_degradation_ms(self) -> float:
        return self.median_rtt_after_ms - self.median_rtt_before_ms


def failure_impact(
    before: Deployment, after: Deployment, user_base: UserBase
) -> FailureImpact:
    """Measure a failure's user impact over the whole user base."""
    locations = user_base.locations
    n = len(locations)
    asns = np.fromiter((loc.asn for loc in locations), dtype=np.int64, count=n)
    regions = np.fromiter((loc.region_id for loc in locations), dtype=np.int64, count=n)
    users = np.fromiter((loc.users for loc in locations), dtype=np.int64, count=n)
    return batch_impact(
        f"{before.name} → {after.name}",
        before.resolve_many(asns, regions),
        after.resolve_many(asns, regions),
        users,
    )


def batch_impact(
    name: str, batch_before: ResolvedBatch, batch_after: ResolvedBatch, users: np.ndarray
) -> FailureImpact:
    """A change's impact on one population resolved before and after it.

    Row ``i`` of both batches holds ``users[i]`` users; only rows served
    by both count.  User counts are integers below 2**53, so every sum
    here is exact in any order and either dtype.
    """
    from ..core.cdf import WeightedCdf

    both = batch_before.ok & batch_after.ok
    if not both.any():
        raise ValueError("no users could be measured against both deployments")
    users = users[both]
    moved = batch_before.site_region_ids[both] != batch_after.site_region_ids[both]
    weights = users.astype(np.float64)
    cdf_before = WeightedCdf(batch_before.base_rtt_ms[both], weights)
    cdf_after = WeightedCdf(batch_after.base_rtt_ms[both], weights)
    total = float(weights.sum())
    load_before = np.bincount(batch_before.site_ids[both], weights=weights)
    load_after = np.bincount(batch_after.site_ids[both], weights=weights)
    return FailureImpact(
        name=name,
        users_measured=int(users.sum()),
        users_rerouted=int(users[moved].sum()),
        median_rtt_before_ms=cdf_before.median,
        median_rtt_after_ms=cdf_after.median,
        p95_rtt_before_ms=cdf_before.quantile(0.95),
        p95_rtt_after_ms=cdf_after.quantile(0.95),
        max_site_share_before=float(load_before.max()) / total,
        max_site_share_after=float(load_after.max()) / total,
    )
