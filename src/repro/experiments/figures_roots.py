"""Root-DNS experiments: Fig. 2 (inflation), Fig. 3/8/9 (amortisation),
Fig. 10 (favorite sites), Fig. 11 (2020 DITL)."""

from __future__ import annotations

from ..core import (
    amortize_apnic,
    amortize_cdn,
    amortize_ideal,
    favorite_site_cdf,
    format_cdf_summary,
    root_geographic_inflation,
    root_latency_inflation,
)
from ..ditl import volumes_by_asn
from .base import ExperimentResult
from .scenario import Scenario

_GI_POINTS = tuple(range(0, 145, 5))
_LI_POINTS = tuple(range(0, 205, 5))
_QPD_POINTS = tuple(
    base * 10.0**exp for exp in range(-3, 4) for base in (1.0, 2.0, 5.0)
)


def fig02a(scenario: Scenario) -> ExperimentResult:
    """Geographic inflation per root query, CDF of users (Eq. 1)."""
    inflation = root_geographic_inflation(scenario.joined_2018, scenario.letters_2018)
    result = ExperimentResult("fig02a", "Root DNS geographic inflation (Fig. 2a)")
    ordered = sorted(
        inflation.names, key=lambda n: scenario.letters_2018[n].n_global_sites
    )
    for name in ordered:
        cdf = inflation.per_deployment[name]
        sites = scenario.letters_2018[name].n_global_sites
        result.add(f"{name} - {sites}", format_cdf_summary(name, cdf))
        result.add_series(f"{name} - {sites}", cdf.series(_GI_POINTS))
        result.data[f"{name}/median"] = cdf.median
        result.data[f"{name}/efficiency"] = inflation.efficiency(name)
        result.data[f"{name}/frac_over_20ms"] = cdf.fraction_above(20.0)
    if inflation.combined is not None:
        result.add("All Roots", format_cdf_summary("All Roots", inflation.combined))
        result.add_series("All Roots", inflation.combined.series(_GI_POINTS))
        result.data["all/median"] = inflation.combined.median
        result.data["all/zero_mass"] = inflation.combined.fraction_at_zero(0.5)
        result.data["all/frac_over_20ms"] = inflation.combined.fraction_above(20.0)
        result.data["all/frac_any_inflation"] = 1.0 - inflation.combined.fraction_at_zero(0.5)
    result.data["series_points"] = _GI_POINTS
    return result


def fig02b(scenario: Scenario) -> ExperimentResult:
    """Latency inflation per root query over the TCP subset (Eq. 2)."""
    inflation = root_latency_inflation(
        scenario.joined_2018, scenario.letters_2018, scenario.capture_2018
    )
    result = ExperimentResult("fig02b", "Root DNS latency inflation (Fig. 2b)")
    ordered = sorted(
        inflation.names, key=lambda n: scenario.letters_2018[n].n_global_sites
    )
    for name in ordered:
        cdf = inflation.per_deployment[name]
        sites = scenario.letters_2018[name].n_global_sites
        result.add(f"{name} - {sites}", format_cdf_summary(name, cdf))
        result.add_series(f"{name} - {sites}", cdf.series(_LI_POINTS))
        result.data[f"{name}/median"] = cdf.median
        result.data[f"{name}/frac_over_100ms"] = cdf.fraction_above(100.0)
    if inflation.combined is not None:
        result.add("All Roots", format_cdf_summary("All Roots", inflation.combined))
        result.add_series("All Roots", inflation.combined.series(_LI_POINTS))
        result.data["all/median"] = inflation.combined.median
        result.data["all/frac_over_100ms"] = inflation.combined.fraction_above(100.0)
    result.data["letters"] = sorted(inflation.names)
    return result


def _amortization_result(
    scenario: Scenario, experiment_id: str, title: str, include_junk: bool, by_slash24: bool
) -> ExperimentResult:
    rows = scenario.joined_2018 if by_slash24 else scenario.joined_2018_ip
    cdn = amortize_cdn(rows, include_junk=include_junk)
    apnic_volumes = (
        scenario.asn_volumes_2018
        if not include_junk
        else volumes_by_asn(scenario.filtered_2018, scenario.mapper, include_junk=True)[0]
    )
    apnic = amortize_apnic(apnic_volumes, scenario.apnic_counts)
    ideal = amortize_ideal(scenario.joined_2018, scenario.zone)
    result = ExperimentResult(experiment_id, title)
    for line in (ideal, cdn, apnic):
        result.add(line.label, format_cdf_summary(line.label, line.cdf, unit="q/d"))
        result.add_series(line.label, line.cdf.series(_QPD_POINTS))
        result.data[f"{line.label.lower()}/median"] = line.median
        result.data[f"{line.label.lower()}/frac_at_most_1"] = line.fraction_at_most(1.0)
    result.data["series_points"] = _QPD_POINTS
    return result


def fig03(scenario: Scenario) -> ExperimentResult:
    """Root queries per user per day (Ideal / CDN / APNIC)."""
    return _amortization_result(
        scenario, "fig03", "Queries per user per day (Fig. 3)",
        include_junk=False, by_slash24=True,
    )


def fig08(scenario: Scenario) -> ExperimentResult:
    """Fig. 3 with invalid-TLD and PTR queries re-included (App. B.1)."""
    return _amortization_result(
        scenario, "fig08", "Queries per user per day, junk included (Fig. 8)",
        include_junk=True, by_slash24=True,
    )


def fig09(scenario: Scenario) -> ExperimentResult:
    """Fig. 3 without the /24 join (App. B.2) — far less representative."""
    return _amortization_result(
        scenario, "fig09", "Queries per user per day, exact-IP join (Fig. 9)",
        include_junk=False, by_slash24=False,
    )


def fig10(scenario: Scenario) -> ExperimentResult:
    """Fraction of a /24's queries missing its favorite site (Eq. 3)."""
    result = ExperimentResult("fig10", "Queries away from the favorite site (Fig. 10)")
    for name in scenario.filtered_2018.letter_names:
        cdf = favorite_site_cdf(scenario.filtered_2018, name)
        if cdf is None:
            continue
        deployment = scenario.letters_2018[name]
        total_sites = len(deployment.sites)
        label = f"{name} ({deployment.n_global_sites}G {total_sites}T)"
        result.add(label, format_cdf_summary(label, cdf, unit=""))
        result.data[f"{name}/frac_single_site"] = cdf.fraction_at_most(1e-9)
        result.data[f"{name}/p90"] = cdf.quantile(0.90)
    return result


def fig11a(scenario: Scenario) -> ExperimentResult:
    """2020-DITL amortisation (App. B.3): conclusions do not change."""
    rows = scenario.joined_2020
    cdn = amortize_cdn(rows)
    ideal = amortize_ideal(rows, scenario.zone)
    apnic_volumes, _ = volumes_by_asn(scenario.filtered_2020, scenario.mapper)
    apnic = amortize_apnic(apnic_volumes, scenario.apnic_counts)
    result = ExperimentResult("fig11a", "Queries per user per day, 2020 DITL (Fig. 11a)")
    for line in (ideal, cdn, apnic):
        result.add(line.label, format_cdf_summary(line.label, line.cdf, unit="q/d"))
        result.data[f"{line.label.lower()}/median"] = line.median
    return result


def fig11b(scenario: Scenario) -> ExperimentResult:
    """2020-DITL geographic inflation (App. B.3)."""
    inflation = root_geographic_inflation(scenario.joined_2020, scenario.letters_2020)
    result = ExperimentResult("fig11b", "Root geographic inflation, 2020 DITL (Fig. 11b)")
    for name in sorted(
        inflation.names, key=lambda n: scenario.letters_2020[n].n_global_sites
    ):
        cdf = inflation.per_deployment[name]
        sites = scenario.letters_2020[name].n_global_sites
        result.add(f"{name} - {sites}", format_cdf_summary(name, cdf))
        result.data[f"{name}/median"] = cdf.median
    if inflation.combined is not None:
        result.add("All Roots", format_cdf_summary("All Roots", inflation.combined))
        result.data["all/frac_over_20ms"] = inflation.combined.fraction_above(20.0)
    return result
