"""Cross-system experiments: Fig. 6 (AS paths) and Fig. 7 (efficiency,
coverage)."""

from __future__ import annotations

import numpy as np

from ..core import (
    cdn_geographic_inflation,
    coverage_curve,
    combined_coverage_curve,
    efficiency_vs_latency,
    format_table,
    inflation_by_path_length,
    path_length_distribution,
    root_geographic_inflation,
)
from .base import ExperimentResult
from .scenario import Scenario


def _ring_order(scenario: Scenario) -> list[str]:
    return sorted(scenario.cdn.rings, key=lambda name: int(name.lstrip("R")))


def fig06a(scenario: Scenario) -> ExperimentResult:
    """AS-path-length distribution to the CDN and to each letter."""
    orgs = scenario.internet.orgs
    result = ExperimentResult("fig06a", "AS path lengths (Fig. 6a)")
    cdn_routes = scenario.atlas.traceroute_all(scenario.cdn.largest_ring)
    distributions = {"CDN": path_length_distribution(cdn_routes, orgs, "CDN")}
    all_roots_shares = {bucket: 0.0 for bucket in (2, 3, 4, 5)}
    letters = [
        name
        for name in sorted(scenario.letters_2018)
        if scenario.letters_2018[name].n_global_sites >= 2
    ]
    for name in letters:
        routes = scenario.atlas.traceroute_all(scenario.letters_2018[name])
        distributions[name] = path_length_distribution(routes, orgs, name)
        for bucket in all_roots_shares:
            all_roots_shares[bucket] += distributions[name].share(bucket)
    all_roots = {bucket: share / len(letters) for bucket, share in all_roots_shares.items()}

    rows = []
    for name, distribution in distributions.items():
        rows.append(
            {
                "destination": name,
                "2 ASes": f"{distribution.share(2):.2f}",
                "3 ASes": f"{distribution.share(3):.2f}",
                "4 ASes": f"{distribution.share(4):.2f}",
                "5+ ASes": f"{distribution.share(5):.2f}",
            }
        )
        result.data[f"{name}/share_2as"] = distribution.share(2)
        result.data[f"{name}/share_4plus"] = distribution.share(4) + distribution.share(5)
    rows.append(
        {
            "destination": "All Roots",
            "2 ASes": f"{all_roots[2]:.2f}",
            "3 ASes": f"{all_roots[3]:.2f}",
            "4 ASes": f"{all_roots[4]:.2f}",
            "5+ ASes": f"{all_roots[5]:.2f}",
        }
    )
    result.data["all_roots/share_2as"] = all_roots[2]
    result.add("path length shares", format_table(rows))
    return result


def fig06b(scenario: Scenario) -> ExperimentResult:
    """Geographic inflation vs AS path length (box stats per bucket)."""
    orgs = scenario.internet.orgs
    result = ExperimentResult("fig06b", "Inflation vs AS path length (Fig. 6b)")
    roots_geo = root_geographic_inflation(scenario.joined_2018, scenario.letters_2018)
    cdn_geo = cdn_geographic_inflation(scenario.server_logs, scenario.cdn)
    largest = _ring_order(scenario)[-1]

    cases = {"CDN": (scenario.cdn.largest_ring, cdn_geo.per_location.get(largest, {}))}
    for name in sorted(roots_geo.names):
        cases[name] = (scenario.letters_2018[name], roots_geo.per_location.get(name, {}))

    rows = []
    for name, (deployment, inflation_map) in cases.items():
        routes = scenario.atlas.traceroute_all(deployment)
        if not inflation_map:
            continue
        boxes = inflation_by_path_length(routes, orgs, inflation_map)
        for bucket, box in boxes.items():
            bucket_label = f"{bucket} ASes" if bucket < 4 else "4+ ASes"
            rows.append(
                {
                    "destination": name,
                    "path_length": bucket_label,
                    "min": f"{box.minimum:.1f}",
                    "q1": f"{box.q1:.1f}",
                    "median": f"{box.median:.1f}",
                    "q3": f"{box.q3:.1f}",
                    "max": f"{box.maximum:.1f}",
                    "locations": str(box.count),
                }
            )
            result.data[f"{name}/{bucket}/median"] = box.median
    result.add("inflation by path length", format_table(rows))
    return result


def fig07a(scenario: Scenario) -> ExperimentResult:
    """Median latency and efficiency versus deployment size."""
    result = ExperimentResult("fig07a", "Latency & efficiency vs sites (Fig. 7a)")
    roots_geo = root_geographic_inflation(scenario.joined_2018, scenario.letters_2018)
    cdn_geo = cdn_geographic_inflation(scenario.server_logs, scenario.cdn)

    median_latency: dict[str, float] = {}
    n_sites: dict[str, int] = {}
    for name in roots_geo.names:
        deployment = scenario.letters_2018[name]
        rtts = scenario.atlas.median_rtts(deployment)
        if rtts:
            median_latency[name] = float(np.median(rtts))
            n_sites[name] = deployment.n_global_sites
    for name in _ring_order(scenario):
        ring = scenario.cdn.rings[name]
        rtts = scenario.atlas.median_rtts(ring)
        if rtts:
            median_latency[name] = float(np.median(rtts))
            n_sites[name] = ring.n_global_sites

    combined = roots_geo
    combined.per_deployment.update(cdn_geo.per_deployment)
    points = efficiency_vs_latency(combined, median_latency, n_sites)
    rows = [
        {
            "deployment": p.name,
            "global_sites": str(p.n_global_sites),
            "median_latency_ms": f"{p.median_latency_ms:.1f}",
            "efficiency": f"{p.efficiency:.2f}",
        }
        for p in points
    ]
    result.add("per deployment", format_table(rows))
    for p in points:
        result.data[f"{p.name}/latency"] = p.median_latency_ms
        result.data[f"{p.name}/efficiency"] = p.efficiency
        result.data[f"{p.name}/sites"] = p.n_global_sites
    return result


def fig07b(scenario: Scenario) -> ExperimentResult:
    """Coverage-radius curves for rings, letters, and All Roots."""
    result = ExperimentResult("fig07b", "Site coverage of users (Fig. 7b)")
    curves = []
    for name in _ring_order(scenario):
        curves.append(coverage_curve(scenario.cdn.rings[name], scenario.user_base))
    for name in sorted(scenario.letters_2018):
        deployment = scenario.letters_2018[name]
        if deployment.n_global_sites >= 20:
            curves.append(coverage_curve(deployment, scenario.user_base))
    all_roots = combined_coverage_curve(
        list(scenario.letters_2018.values()), scenario.user_base
    )
    curves.append(all_roots)

    rows = []
    for curve in curves:
        result.add_series(
            curve.name, list(zip(curve.radii_km, curve.covered_fraction))
        )
        rows.append(
            {
                "deployment": curve.name,
                **{
                    f"{int(radius)}km": f"{fraction:.2f}"
                    for radius, fraction in zip(curve.radii_km, curve.covered_fraction)
                },
            }
        )
        result.data[f"{curve.name}/at_500km"] = curve.at(500.0)
        result.data[f"{curve.name}/at_1000km"] = curve.at(1000.0)
    result.add("covered user fraction by radius", format_table(rows))
    return result
