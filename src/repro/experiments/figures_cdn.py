"""CDN experiments: Fig. 1 (map), Fig. 4 (latency), Fig. 5 (inflation),
Fig. 14 (relative-latency map)."""

from __future__ import annotations

import numpy as np

from ..core import (
    RTTS_PER_PAGE_LOAD,
    cdn_geographic_inflation,
    cdn_latency_inflation,
    format_cdf_summary,
    format_table,
    ring_latency_cdfs,
    ring_transitions,
    root_geographic_inflation,
    root_latency_inflation,
)
from .base import ExperimentResult
from .scenario import Scenario

_RTT_POINTS = tuple(range(0, 125, 5))
_PAGE_POINTS = tuple(range(0, 1250, 50))
_INFL_POINTS = tuple(range(0, 205, 5))
_DELTA_POINTS = tuple(range(-100, 420, 20))


def _ring_order(scenario: Scenario) -> list[str]:
    return sorted(scenario.cdn.rings, key=lambda name: int(name.lstrip("R")))


def fig01(scenario: Scenario) -> ExperimentResult:
    """Ring footprints and user concentrations (the Fig. 1 map, as data)."""
    result = ExperimentResult("fig01", "CDN rings and user populations (Fig. 1)")
    world = scenario.internet.world
    rows = []
    locations = list(scenario.user_base)
    location_regions = [location.region_id for location in locations]
    for name in _ring_order(scenario):
        ring = scenario.cdn.rings[name]
        regions = {site.region_id for site in ring.sites}
        min_km = ring.min_global_distance_km_many(location_regions)
        covered = sum(
            location.users
            for location, km in zip(locations, min_km)
            if km <= 1000.0
        )
        rows.append(
            {
                "ring": name,
                "front_ends": str(len(ring.sites)),
                "distinct_regions": str(len(regions)),
                "users_within_1000km": f"{covered / scenario.user_base.total_users:.1%}",
            }
        )
        result.data[f"{name}/front_ends"] = len(ring.sites)
        result.data[f"{name}/coverage_1000km"] = covered / scenario.user_base.total_users
    result.add("rings", format_table(rows))
    site_rows = [
        {
            "site": site.name,
            "region": world.region(site.region_id).name,
            "continent": world.region(site.region_id).continent,
            "lat": f"{world.region(site.region_id).location.lat:.1f}",
            "lon": f"{world.region(site.region_id).location.lon:.1f}",
        }
        for site in scenario.cdn.largest_ring.sites[:20]
    ]
    result.add("sample front-ends (largest ring)", format_table(site_rows))
    return result


def fig04a(scenario: Scenario) -> ExperimentResult:
    """Ring latency per RTT and per page load, from Atlas probes."""
    samples = {
        name: scenario.atlas.median_rtts(scenario.cdn.rings[name])
        for name in _ring_order(scenario)
    }
    latency = ring_latency_cdfs(samples)
    result = ExperimentResult("fig04a", "CDN latency per RTT / page load (Fig. 4a)")
    for ring in latency.rings:
        per_rtt = latency.per_rtt[ring]
        per_page = latency.per_page_load(ring)
        result.add(
            ring,
            format_cdf_summary(f"{ring}/RTT", per_rtt)
            + "\n"
            + format_cdf_summary(f"{ring}/page", per_page),
        )
        result.add_series(f"{ring} per RTT", per_rtt.series(_RTT_POINTS))
        result.add_series(f"{ring} per page load", per_page.series(_PAGE_POINTS))
        result.data[f"{ring}/median_rtt"] = per_rtt.median
        result.data[f"{ring}/median_page"] = per_page.median
    rings = latency.rings
    result.data["page_gap_smallest_largest"] = (
        latency.per_page_load(rings[0]).median - latency.per_page_load(rings[-1]).median
    )
    result.data["rtts_per_page_load"] = RTTS_PER_PAGE_LOAD
    return result


def fig04b(scenario: Scenario) -> ExperimentResult:
    """Latency change per ⟨region, AS⟩ when moving to the next ring."""
    transitions = ring_transitions(scenario.client_measurements, _ring_order(scenario))
    result = ExperimentResult("fig04b", "Ring-transition latency change (Fig. 4b)")
    for transition in transitions:
        cdf = transition.delta_cdf
        result.add(transition.label, format_cdf_summary(transition.label, cdf))
        result.add_series(transition.label, cdf.series(_DELTA_POINTS))
        key = transition.label.replace(" ", "")
        result.data[f"{key}/median"] = cdf.median
        result.data[f"{key}/frac_no_regression"] = transition.fraction_improved_or_equal()
        result.data[f"{key}/frac_regress_10ms"] = transition.fraction_regressing_more_than(10.0)
    return result


def fig05a(scenario: Scenario) -> ExperimentResult:
    """CDN geographic inflation per RTT, with the root comparison."""
    inflation = cdn_geographic_inflation(scenario.server_logs, scenario.cdn)
    result = ExperimentResult("fig05a", "CDN geographic inflation (Fig. 5a)")
    for name in _ring_order(scenario):
        cdf = inflation.per_deployment[name]
        result.add(name, format_cdf_summary(name, cdf))
        result.add_series(name, cdf.series(_INFL_POINTS))
        result.data[f"{name}/zero_mass"] = cdf.fraction_at_zero(0.5)
        result.data[f"{name}/frac_under_10ms"] = cdf.fraction_at_most(10.0)
        result.data[f"{name}/median"] = cdf.median
    roots = root_geographic_inflation(scenario.joined_2018, scenario.letters_2018)
    if roots.combined is not None:
        result.add("Root DNS", format_cdf_summary("Root DNS", roots.combined))
        result.add_series("Root DNS", roots.combined.series(_INFL_POINTS))
        result.data["roots/zero_mass"] = roots.combined.fraction_at_zero(0.5)
        result.data["roots/frac_over_10ms"] = roots.combined.fraction_above(10.0)
    return result


def fig05b(scenario: Scenario) -> ExperimentResult:
    """CDN latency inflation per RTT, with the root comparison."""
    inflation = cdn_latency_inflation(scenario.server_logs, scenario.cdn)
    result = ExperimentResult("fig05b", "CDN latency inflation (Fig. 5b)")
    for name in _ring_order(scenario):
        cdf = inflation.per_deployment[name]
        result.add(name, format_cdf_summary(name, cdf))
        result.add_series(name, cdf.series(_INFL_POINTS))
        result.data[f"{name}/frac_under_30ms"] = cdf.fraction_at_most(30.0)
        result.data[f"{name}/frac_under_60ms"] = cdf.fraction_at_most(60.0)
        result.data[f"{name}/frac_under_100ms"] = cdf.fraction_at_most(100.0)
    roots = root_latency_inflation(
        scenario.joined_2018, scenario.letters_2018, scenario.capture_2018
    )
    if roots.combined is not None:
        result.add("Root DNS", format_cdf_summary("Root DNS", roots.combined))
        result.data["roots/frac_over_100ms"] = roots.combined.fraction_above(100.0)
    return result


def fig14(scenario: Scenario) -> ExperimentResult:
    """Largest-ring front-ends and relative user latency by region."""
    ring = scenario.cdn.largest_ring
    latencies: dict[int, list[tuple[float, float]]] = {}
    for row in scenario.server_logs.for_ring(ring.name):
        latencies.setdefault(row.region_id, []).append(
            (row.median_rtt_ms, float(row.users))
        )
    region_latency = {
        region: sum(v * w for v, w in pairs) / sum(w for _, w in pairs)
        for region, pairs in latencies.items()
    }
    values = np.array(list(region_latency.values()))
    low, high = float(values.min()), float(np.percentile(values, 95))
    world = scenario.internet.world
    rows = []
    for region_id, latency in sorted(region_latency.items()):
        region = world.region(region_id)
        relative = 0.0 if high <= low else float(np.clip((latency - low) / (high - low), 0, 1))
        rows.append(
            {
                "region": region.name,
                "continent": region.continent,
                "users": str(region.population),
                "relative_latency": f"{relative:.2f}",
            }
        )
    result = ExperimentResult("fig14", "Relative latency to the largest ring (Fig. 14)")
    result.add("regions (first 25)", format_table(rows[:25]))
    min_km_of = dict(
        zip(region_latency, ring.min_global_distance_km_many(list(region_latency)))
    )
    near = [region_latency[r] for r in region_latency if min_km_of[r] <= 500.0]
    far = [region_latency[r] for r in region_latency if min_km_of[r] > 2_000.0]
    if near and far:
        result.data["near_median_ms"] = float(np.median(near))
        result.data["far_median_ms"] = float(np.median(far))
    result.data["n_regions"] = len(region_latency)
    return result
