"""Inflation metrics — the paper's Equations 1 and 2.

*Geographic inflation* (Eq. 1) compares the distance of the sites a
recursive's queries actually reach against the closest global site,
expressed as round-trip milliseconds at the speed of light in fiber:

    GI(R, j) = (2 / c_f) · ( Σ_i N(R, j_i)·d(R, j_i) / N(R, j)  −  min_k d(R, j_k) )

*Latency inflation* (Eq. 2) replaces per-site distances with measured
median TCP RTTs and the lower bound with the achievable RTT
``3·d_min / c_f`` (paths rarely beat two-thirds of fiber speed):

    LI(R, j) = Σ_i N(R, j_i)·l(R, j_i) / N(R, j)  −  (3·2 / 2c_f) · min_k d(R, j_k)

Both are computed per recursive (DITL∩CDN rows) for the roots and per
⟨region, AS⟩ location (server-side logs) for the CDN, always weighted by
users, and always over *global* sites only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..anycast.batch import region_distance_matrix
from ..anycast.builders import CdnSystem
from ..anycast.deployment import Deployment, IndependentDeployment
from ..ditl.capture import DitlCapture
from ..ditl.join import JoinedRecursive
from ..geo import geographic_rtt_ms, optimal_rtt_ms
from ..measurement.serverlogs import ServerSideLogs
from .cdf import WeightedCdf

__all__ = [
    "EFFICIENCY_EPS_MS",
    "InflationResult",
    "root_geographic_inflation",
    "root_latency_inflation",
    "cdn_geographic_inflation",
    "cdn_latency_inflation",
]

#: Inflation below this is treated as "zero" (efficiency intercepts);
#: 0.5 ms ≈ 50 km, generous to metro-scale geolocation fuzz.
EFFICIENCY_EPS_MS = 0.5


@dataclass(slots=True)
class InflationResult:
    """Per-deployment inflation CDFs plus per-location means (Fig. 6b)."""

    per_deployment: dict[str, WeightedCdf] = field(default_factory=dict)
    combined: WeightedCdf | None = None  # the "All Roots" line
    #: user-weighted mean inflation per ⟨region, AS⟩ per deployment
    per_location: dict[str, dict[tuple[int, int], float]] = field(default_factory=dict)

    def efficiency(self, name: str) -> float:
        """Fraction of users with (approximately) zero inflation."""
        return self.per_deployment[name].fraction_at_most(EFFICIENCY_EPS_MS)

    @property
    def names(self) -> list[str]:
        return sorted(self.per_deployment)


def _site_distance_km(deployment: Deployment, region_id: int, site_id: int) -> float:
    distances = region_distance_matrix(deployment.topology)
    return float(distances[region_id, deployment.site_region_ids[site_id]])


def _accumulate_location(
    table: dict[tuple[int, int], list[tuple[float, float]]],
    row: JoinedRecursive,
    value: float,
) -> None:
    if row.asn is None:
        return
    table.setdefault((row.region_id, row.asn), []).append((value, float(row.users)))


def _location_means(
    table: dict[tuple[int, int], list[tuple[float, float]]]
) -> dict[tuple[int, int], float]:
    means = {}
    for key, pairs in table.items():
        weight = sum(w for _, w in pairs)
        if weight > 0:
            means[key] = sum(v * w for v, w in pairs) / weight
    return means


def root_geographic_inflation(
    rows: list[JoinedRecursive],
    letters: dict[str, IndependentDeployment],
    min_global_sites: int = 2,
) -> InflationResult:
    """Eq. 1 over the root letters (Fig. 2a), plus the All Roots line.

    Letters with a single global site are skipped per-letter (inflation
    is trivially zero) but still participate in nothing — exactly as the
    paper omits H root.
    """
    eligible = {
        name: dep for name, dep in letters.items() if dep.n_global_sites >= min_global_sites
    }
    values: dict[str, list[float]] = {name: [] for name in eligible}
    weights: dict[str, list[float]] = {name: [] for name in eligible}
    combined_values: list[float] = []
    combined_weights: list[float] = []
    combined_table: dict = {}
    location_tables: dict[str, dict] = {name: {} for name in eligible}
    global_ids_of = {
        name: {s.site_id for s in dep.global_sites} for name, dep in eligible.items()
    }

    for row in rows:
        if row.users <= 0:
            continue
        per_letter_gi: dict[str, float] = {}
        per_letter_volume: dict[str, float] = {}
        for name, deployment in eligible.items():
            site_map = row.site_valid_by_letter.get(name)
            if not site_map:
                continue
            global_ids = global_ids_of[name]
            total = 0.0
            weighted_km = 0.0
            for site_id, queries in site_map.items():
                if site_id not in global_ids:
                    continue  # Eq. 1 sums over global sites only
                total += queries
                weighted_km += queries * _site_distance_km(deployment, row.region_id, site_id)
            if total <= 0:
                continue
            extra_km = weighted_km / total - deployment.min_global_distance_km(row.region_id)
            gi = max(0.0, geographic_rtt_ms(extra_km))
            per_letter_gi[name] = gi
            per_letter_volume[name] = total
            values[name].append(gi)
            weights[name].append(float(row.users))
            _accumulate_location(location_tables[name], row, gi)
        if per_letter_gi:
            volume = sum(per_letter_volume.values())
            blended = sum(
                gi * per_letter_volume[name] for name, gi in per_letter_gi.items()
            ) / volume
            combined_values.append(blended)
            combined_weights.append(float(row.users))
            _accumulate_location(combined_table, row, blended)

    result = InflationResult()
    for name in eligible:
        if values[name]:
            result.per_deployment[name] = WeightedCdf(values[name], weights[name])
            result.per_location[name] = _location_means(location_tables[name])
    if combined_values:
        result.combined = WeightedCdf(combined_values, combined_weights)
        result.per_location["All Roots"] = _location_means(combined_table)
    return result


def _tcp_index(capture: DitlCapture, letter: str) -> dict[tuple[int, int], tuple[float, int]]:
    """(slash24, site) → (sample-weighted RTT, samples) for one letter."""
    index: dict[tuple[int, int], tuple[float, int]] = {}
    tcp = capture.letters[letter].tcp
    columns = (tcp.slash24, tcp.site_id, tcp.rtt_ms, tcp.samples)
    for slash24, site_id, rtt_ms, row_samples in zip(*(c.tolist() for c in columns)):
        key = (slash24, site_id)
        if key in index:
            rtt, samples = index[key]
            total = samples + row_samples
            index[key] = ((rtt * samples + rtt_ms * row_samples) / total, total)
        else:
            index[key] = (rtt_ms, row_samples)
    return index


def root_latency_inflation(
    rows: list[JoinedRecursive],
    letters: dict[str, IndependentDeployment],
    capture: DitlCapture,
    min_samples: int = 10,
    min_global_sites: int = 2,
) -> InflationResult:
    """Eq. 2 over the letters with usable TCP (Fig. 2b) plus All Roots."""
    eligible = {
        name: dep
        for name, dep in letters.items()
        if dep.n_global_sites >= min_global_sites
        and name in capture.letters
        and capture.letters[name].tcp_ok
    }
    values: dict[str, list[float]] = {name: [] for name in eligible}
    weights: dict[str, list[float]] = {name: [] for name in eligible}
    combined_values: list[float] = []
    combined_weights: list[float] = []
    indexes = {name: _tcp_index(capture, name) for name in eligible}
    global_ids_of = {
        name: {s.site_id for s in dep.global_sites} for name, dep in eligible.items()
    }

    for row in rows:
        if row.users <= 0:
            continue
        per_letter_li: dict[str, float] = {}
        per_letter_volume: dict[str, float] = {}
        for name, deployment in eligible.items():
            site_map = row.site_valid_by_letter.get(name)
            if not site_map:
                continue
            index = indexes[name]
            global_ids = global_ids_of[name]
            covered = 0.0
            weighted_rtt = 0.0
            for site_id, queries in site_map.items():
                if site_id not in global_ids:
                    continue
                sample = index.get((row.slash24, site_id))
                if sample is None or sample[1] < min_samples:
                    continue  # need ≥ min_samples handshakes per site
                covered += queries
                weighted_rtt += queries * sample[0]
            if covered <= 0:
                continue
            li = weighted_rtt / covered - optimal_rtt_ms(
                deployment.min_global_distance_km(row.region_id)
            )
            per_letter_li[name] = li
            per_letter_volume[name] = covered
            values[name].append(li)
            weights[name].append(float(row.users))
        if per_letter_li:
            volume = sum(per_letter_volume.values())
            blended = sum(
                li * per_letter_volume[name] for name, li in per_letter_li.items()
            ) / volume
            combined_values.append(blended)
            combined_weights.append(float(row.users))

    result = InflationResult()
    for name in eligible:
        if values[name]:
            result.per_deployment[name] = WeightedCdf(values[name], weights[name])
    if combined_values:
        result.combined = WeightedCdf(combined_values, combined_weights)
    return result


def cdn_geographic_inflation(logs: ServerSideLogs, cdn: CdnSystem) -> InflationResult:
    """Eq. 1 per ring from server-side logs (Fig. 5a)."""
    result = InflationResult()
    for ring_name in logs.rings:
        ring = cdn.rings[ring_name]
        ring_rows = logs.for_ring(ring_name)
        site_km = ring.site_distance_km_many(
            [row.region_id for row in ring_rows],
            [row.front_end_site_id for row in ring_rows],
        )
        min_km = ring.min_global_distance_km_many([row.region_id for row in ring_rows])
        values: list[float] = []
        weights: list[float] = []
        table: dict = {}
        for index, row in enumerate(ring_rows):
            extra_km = float(site_km[index]) - float(min_km[index])
            gi = max(0.0, geographic_rtt_ms(extra_km))
            values.append(gi)
            weights.append(float(row.users))
            table.setdefault((row.region_id, row.asn), []).append((gi, float(row.users)))
        if values:
            result.per_deployment[ring_name] = WeightedCdf(values, weights)
            result.per_location[ring_name] = _location_means(table)
    return result


def cdn_latency_inflation(logs: ServerSideLogs, cdn: CdnSystem) -> InflationResult:
    """Eq. 2 per ring from server-side logs (Fig. 5b)."""
    result = InflationResult()
    for ring_name in logs.rings:
        ring = cdn.rings[ring_name]
        ring_rows = logs.for_ring(ring_name)
        min_km = ring.min_global_distance_km_many([row.region_id for row in ring_rows])
        values: list[float] = []
        weights: list[float] = []
        for index, row in enumerate(ring_rows):
            li = row.median_rtt_ms - optimal_rtt_ms(float(min_km[index]))
            values.append(li)
            weights.append(float(row.users))
        if values:
            result.per_deployment[ring_name] = WeightedCdf(values, weights)
    return result
