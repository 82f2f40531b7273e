"""Local-perspective experiments: Fig. 12/13 (resolver latency), the
author-machine numbers (§4.3), Appendix C (RTTs per page load), and
Table 5 (the redundant-query bug episode)."""

from __future__ import annotations

import numpy as np

from ..core import analyze_redundancy, find_bug_episode, format_table
from ..web import build_page_corpus, estimate_rtts_per_page_load
from .base import ExperimentResult
from .scenario import Scenario


def fig12(scenario: Scenario) -> ExperimentResult:
    """CDF of client DNS latencies at the shared (ISI-style) resolver."""
    isi = scenario.isi_result
    latencies = isi.latency_cdf_ms()
    result = ExperimentResult("fig12", "Client DNS latency at a recursive (Fig. 12)")
    rows = []
    for q in (0.10, 0.25, 0.50, 0.75, 0.90, 0.99):
        rows.append({"quantile": f"p{int(q * 100)}", "latency_ms": f"{np.quantile(latencies, q):.2f}"})
    result.add("latency quantiles", format_table(rows))
    points = [0.01, 0.1, 0.5, 1, 5, 10, 50, 100, 500, 1_000, 5_000, 10_000]
    result.add_series(
        "client DNS latency",
        [(float(x), float((latencies <= x).mean())) for x in points],
    )
    result.data["frac_sub_ms"] = float((latencies < 1.0).mean())
    result.data["median_ms"] = float(np.median(latencies))
    result.data["n_queries"] = int(len(latencies))
    result.data["overall_miss_rate"] = isi.overall_miss_rate
    result.data["median_daily_miss_rate"] = isi.median_daily_miss_rate
    return result


def fig13(scenario: Scenario) -> ExperimentResult:
    """Per-user-query root latency (0 when cached) — the log-tail CDF."""
    isi = scenario.isi_result
    result = ExperimentResult("fig13", "Root DNS latency per user query (Fig. 13)")
    frac_touching = isi.fraction_queries_touching_root()
    frac_over_100 = isi.fraction_root_latency_over_ms(100.0)
    rows = [
        {"metric": "queries touching a root", "value": f"{frac_touching:.4%}"},
        {"metric": "queries waiting >100 ms on roots", "value": f"{frac_over_100:.4%}"},
    ]
    result.add("root-latency exposure", format_table(rows))
    roots = isi.root_latency_cdf_ms()
    result.add_series(
        "root latency per user query",
        [(float(x), float((roots <= x).mean()))
         for x in (0, 25, 50, 100, 150, 200, 250, 300, 350)],
    )
    result.data["frac_touching_root"] = frac_touching
    result.data["frac_over_100ms"] = frac_over_100
    # Author-machine perspective (§4.3's local numbers).
    author = scenario.author_result
    result.data["author/median_daily_miss_rate"] = author.median_daily_miss_rate
    result.data["author/root_share_of_page_load"] = author.root_share_of_page_load
    result.data["author/root_share_of_browsing"] = author.root_share_of_browsing
    result.add(
        "author machines",
        format_table(
            [
                {"metric": "median daily cache miss rate",
                 "value": f"{author.median_daily_miss_rate:.4f}"},
                {"metric": "root latency / page load time",
                 "value": f"{author.root_share_of_page_load:.4%}"},
                {"metric": "root latency / active browsing",
                 "value": f"{author.root_share_of_browsing:.5%}"},
            ]
        ),
    )
    return result


def appc(scenario: Scenario) -> ExperimentResult:
    """Appendix C: the ≥10-RTTs-per-page-load lower bound."""
    corpus = build_page_corpus(n_pages=9, seed=scenario.seed + 19)
    estimate = estimate_rtts_per_page_load(corpus, loads_per_page=20, seed=scenario.seed + 20)
    result = ExperimentResult("appc", "RTTs per page load (Appendix C)")
    rows = [
        {"metric": "p5 (lower bound)", "value": str(estimate.lower_bound)},
        {"metric": "median RTTs", "value": f"{estimate.median:.1f}"},
        {"metric": "loads within 10 RTTs", "value": f"{estimate.fraction_within(10):.2%}"},
        {"metric": "loads within 20 RTTs", "value": f"{estimate.fraction_within(20):.2%}"},
    ]
    result.add("RTT distribution", format_table(rows))
    result.data["lower_bound"] = estimate.lower_bound
    result.data["median"] = estimate.median
    result.data["frac_within_10"] = estimate.fraction_within(10)
    result.data["frac_within_20"] = estimate.fraction_within(20)
    return result


def table5(scenario: Scenario) -> ExperimentResult:
    """Appendix E: redundancy statistics and one Table-5 bug episode."""
    trace = scenario.isi_result.trace
    stats = analyze_redundancy(trace, ttl_s=float(scenario.zone.ttl_s))
    result = ExperimentResult("table5", "Redundant root queries (Table 5 / App. E)")
    result.add(
        "redundancy",
        format_table(
            [
                {"metric": "root queries", "value": str(stats.total_root_queries)},
                {"metric": "redundant (<1 TTL)", "value": f"{stats.fraction_redundant:.2%}"},
                {"metric": "AAAA share of redundant",
                 "value": f"{stats.fraction_aaaa_of_redundant:.2%}"},
                {"metric": "bug-pattern share of redundant",
                 "value": f"{stats.fraction_bug_pattern_of_redundant:.2%}"},
            ]
        ),
    )
    result.data["fraction_redundant"] = stats.fraction_redundant
    result.data["fraction_bug_pattern"] = stats.fraction_bug_pattern_of_redundant
    episode = find_bug_episode(trace)
    if episode is not None:
        result.add(f"episode: {episode.client_qname}", format_table(episode.to_rows()))
        result.data["episode_steps"] = len(episode.steps)
        result.data["episode_qname"] = episode.client_qname
    return result
