"""Tables 1–4: operator survey, dataset summaries, join overlap."""

from __future__ import annotations

from ..core import format_table, overlap_table
from .base import ExperimentResult
from .scenario import Scenario

#: §7.3's operator survey.  Eleven of twelve root organizations answered;
#: these are the paper's aggregated responses (there is no system to
#: simulate here — the survey is reproduced as the paper reports it).
SURVEY_GROWTH_REASONS = {
    "Latency": 8,
    "DDoS Resilience": 9,
    "ISP Resilience": 5,
    "Other": 3,
}
SURVEY_FUTURE_TRENDS = {
    "Acceleration of Growth": 1,
    "Deceleration of Growth": 4,
    "Maintain Growth Rate": 4,
    "Cannot Share": 1,
}


def table1(scenario: Scenario) -> ExperimentResult:
    result = ExperimentResult("table1", "Root operator survey (Table 1)")
    result.add(
        "reasons for past growth",
        format_table(
            [{"reason": k, "organizations": str(v)} for k, v in SURVEY_GROWTH_REASONS.items()]
        ),
    )
    result.add(
        "future growth",
        format_table(
            [{"trend": k, "organizations": str(v)} for k, v in SURVEY_FUTURE_TRENDS.items()]
        ),
    )
    result.data.update(
        {f"growth/{k}": v for k, v in SURVEY_GROWTH_REASONS.items()}
    )
    result.data.update(
        {f"future/{k}": v for k, v in SURVEY_FUTURE_TRENDS.items()}
    )
    return result


def table2(scenario: Scenario) -> ExperimentResult:
    """Dataset summary, computed from the generated datasets."""
    capture = scenario.capture_2018
    stats = scenario.filtered_2018.stats
    rows = [
        {
            "dataset": "DITL packet traces (2018)",
            "measurements": f"{capture.total_daily_queries * capture.duration_days:.3g} queries",
            "duration": f"{capture.duration_days:g} days",
            "granularity": f"{len(capture.distinct_slash24s())} /24s",
        },
        {
            "dataset": "DITL ∩ CDN",
            "measurements": f"{sum(r.daily_valid_queries for r in scenario.joined_2018):.3g} queries/day",
            "duration": "joined",
            "granularity": f"{len(scenario.joined_2018)} recursives",
        },
        {
            "dataset": "CDN user counts",
            "measurements": f"{scenario.cdn_counts.total_observed_users:.3g} users",
            "duration": "1 month",
            "granularity": f"{len(scenario.cdn_counts)} egress IPs",
        },
        {
            "dataset": "APNIC user counts",
            "measurements": f"{sum(scenario.apnic_counts.by_asn.values()):.3g} users",
            "duration": "daily",
            "granularity": f"{len(scenario.apnic_counts)} ASes",
        },
        {
            "dataset": "CDN server-side logs",
            "measurements": f"{sum(r.samples for r in scenario.server_logs.rows):.3g} RTTs",
            "duration": "1 week",
            "granularity": f"{len(scenario.server_logs)} rows",
        },
        {
            "dataset": "CDN client-side measurements",
            "measurements": f"{sum(r.samples for r in scenario.client_measurements.rows):.3g} fetches",
            "duration": "1 week",
            "granularity": f"{len(scenario.client_measurements)} rows",
        },
        {
            "dataset": "RIPE-Atlas-like probes",
            "measurements": f"{len(scenario.atlas.probes)} probes",
            "duration": "1 hour",
            "granularity": f"{len(scenario.atlas.asns())} ASes",
        },
    ]
    result = ExperimentResult("table2", "Dataset summary (Table 2)")
    result.add("datasets", format_table(rows))
    result.data["ditl_daily_queries"] = capture.total_daily_queries
    result.data["fraction_invalid"] = stats.fraction_invalid
    result.data["fraction_ipv6"] = stats.fraction_ipv6
    result.data["fraction_private"] = stats.fraction_private
    result.data["joined_recursives"] = len(scenario.joined_2018)
    return result


#: Table 3 is qualitative; reproduced as a catalogue with our synthetic
#: equivalents' caveats.
_TABLE3_ROWS = [
    {"dataset": "CDN server-side logs",
     "strengths": "client→front-end mapping, global coverage",
     "weaknesses": "cannot hold population fixed across rings"},
    {"dataset": "CDN client-side measurements",
     "strengths": "fixed population across rings, global coverage",
     "weaknesses": "front-end unknown, smaller scale"},
    {"dataset": "CDN user counts",
     "strengths": "precise per-recursive estimates",
     "weaknesses": "NAT undercounting, partial coverage"},
    {"dataset": "APNIC user counts",
     "strengths": "public, global coverage",
     "weaknesses": "per-AS granularity, unvalidated"},
    {"dataset": "DITL packet traces",
     "strengths": "global coverage",
     "weaknesses": "noisy, only above the recursive"},
    {"dataset": "DITL ∩ CDN",
     "strengths": "attributes queries to users",
     "weaknesses": "excludes IPv6"},
    {"dataset": "RIPE Atlas", "strengths": "historic data, reproducible",
     "weaknesses": "limited, biased coverage"},
    {"dataset": "ISI resolver trace", "strengths": "precise, below the recursive",
     "weaknesses": "one site, no user context"},
    {"dataset": "Author machines", "strengths": "precise, at the end user",
     "weaknesses": "two users only"},
]


def table3(scenario: Scenario) -> ExperimentResult:
    result = ExperimentResult("table3", "Dataset strengths & weaknesses (Table 3)")
    result.add("catalogue", format_table(_TABLE3_ROWS))
    result.data["n_datasets"] = len(_TABLE3_ROWS)
    return result


def table4(scenario: Scenario) -> ExperimentResult:
    """Join representativeness with and without the /24 aggregation."""
    table = overlap_table(scenario.join_stats_2018_ip, scenario.join_stats_2018)
    result = ExperimentResult("table4", "DITL∩CDN overlap (Table 4)")
    result.add("overlap", format_table(table.rows()))
    result.data["ip/ditl_recursives"] = table.by_ip.frac_ditl_recursives
    result.data["ip/ditl_volume"] = table.by_ip.frac_ditl_volume
    result.data["slash24/ditl_recursives"] = table.by_slash24.frac_ditl_recursives
    result.data["slash24/ditl_volume"] = table.by_slash24.frac_ditl_volume
    result.data["slash24/cdn_recursives"] = table.by_slash24.frac_cdn_recursives
    result.data["slash24/cdn_users"] = table.by_slash24.frac_cdn_users
    return result
