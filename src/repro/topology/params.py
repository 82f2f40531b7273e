"""Topology size and connectivity knobs (stdlib only).

Kept apart from the numpy-backed generator so that a scenario's
configuration, and with it every cache key, can be built without
importing the substrate.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TopologyParams"]


@dataclass(frozen=True, slots=True)
class TopologyParams:
    """Knobs for topology size and connectivity."""

    n_tier1: int = 12
    tier1_footprint_fraction: float = 0.25
    regions_per_transit: float = 9.0
    transit_footprint_fraction: float = 0.35
    eyeballs_per_region_mean: float = 4.0
    n_cloud: int = 3
    cloud_footprint_fraction: float = 0.20
    eyeball_multihome_prob: float = 0.35
    transit_peer_prob: float = 0.55
    cross_continent_transit_peer_prob: float = 0.08
    eyeball_ixp_peer_prob: float = 0.06
    sibling_fraction: float = 0.12
    seed: int = 0

    @classmethod
    def small(cls, seed: int = 0) -> "TopologyParams":
        """A footprint suitable for unit tests (hundreds of ASes)."""
        return cls(
            n_tier1=6,
            regions_per_transit=6.0,
            eyeballs_per_region_mean=2.5,
            n_cloud=2,
            seed=seed,
        )
