#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md: paper-reported vs measured, per artifact.

Runs every experiment at the requested scale and writes the comparison
document.  Usage::

    python scripts/generate_experiments_md.py [--scale medium] [--out EXPERIMENTS.md]
"""

from __future__ import annotations

import argparse
import time

from repro.experiments import Scenario, run_experiment

# (experiment, [(label, paper value text, data key, formatter)])
def pct(x):
    return f"{x:.1%}"


def ms(x):
    return f"{x:.1f} ms"


def num(x):
    return f"{x:.3g}"


COMPARISONS = [
    ("fig01", "CDN rings and user populations", [
        ("R110 front-ends near users (≤1000 km)", "most users (Fig. 1 visual)",
         "R110/coverage_1000km", pct),
        ("R28 front-ends near users (≤1000 km)", "fewer than R110",
         "R28/coverage_1000km", pct),
    ]),
    ("fig02a", "Root geographic inflation (Eq. 1)", [
        ("users with some inflation to the root system", ">95%",
         "all/frac_any_inflation", pct),
        ("users inflated >20 ms (All Roots)", "10.8%", "all/frac_over_20ms", pct),
        ("B-root efficiency (zero-inflation y-intercept)", "high (49% reach closest site)",
         "B/efficiency", pct),
    ]),
    ("fig02b", "Root latency inflation (Eq. 2)", [
        ("worst letters: users >100 ms inflated", "20–40%", "A/frac_over_100ms", pct),
        ("C root users >100 ms inflated", "35%", "C/frac_over_100ms", pct),
        ("All Roots users >100 ms inflated", "~10%", "all/frac_over_100ms", pct),
    ]),
    ("fig03", "Root queries per user per day", [
        ("median (CDN user counts)", "~1 query/user/day", "cdn/median", num),
        ("median (APNIC user counts)", "~1 query/user/day", "apnic/median", num),
        ("median (Ideal once-per-TTL)", "0.007", "ideal/median", num),
    ]),
    ("fig04a", "CDN latency per RTT / page load", [
        ("R28 median per page load", "≈2× R110's", "R28/median_page", ms),
        ("R110 median per page load", "~100 ms at the median probe", "R110/median_page", ms),
        ("R28→R110 median page-load gap", "~100 ms", "page_gap_smallest_largest", ms),
    ]),
    ("fig04b", "Ring-transition latency change", [
        ("locations not regressing R95→R110", "≥90% lose at most a few ms",
         "R95-R110/frac_no_regression", pct),
        ("locations regressing >10 ms R95→R110", "<1%", "R95-R110/frac_regress_10ms", pct),
    ]),
    ("fig05a", "CDN geographic inflation per RTT", [
        ("CDN users with zero inflation (R110)", "~65% (35% see any)", "R110/zero_mass", pct),
        ("CDN users <10 ms inflation (all rings)", "85%", "R110/frac_under_10ms", pct),
        ("root users with zero inflation", "3% (97% inflated)", "roots/zero_mass", pct),
        ("root users >10 ms inflation", "25%", "roots/frac_over_10ms", pct),
    ]),
    ("fig05b", "CDN latency inflation per RTT", [
        ("CDN users <30 ms (all rings)", "70%", "R110/frac_under_30ms", pct),
        ("CDN users <60 ms", "90%", "R110/frac_under_60ms", pct),
        ("CDN users <100 ms", "99%", "R110/frac_under_100ms", pct),
        ("root users >100 ms (system-wide)", "10%", "roots/frac_over_100ms", pct),
    ]),
    ("fig06a", "AS path lengths", [
        ("2-AS paths to the CDN", "69%", "CDN/share_2as", pct),
        ("4+-AS paths to the CDN", "5%", "CDN/share_4plus", pct),
        ("2-AS paths to root letters", "5–44% depending on letter", "F/share_2as", pct),
        ("2-AS paths across All Roots", "low", "all_roots/share_2as", pct),
    ]),
    ("fig06b", "Inflation vs AS path length", [
        ("CDN 2-AS median inflation", "lowest bucket", "CDN/2/median", ms),
        ("CDN 4+-AS median inflation", "higher than 2-AS", "CDN/4/median", ms),
    ]),
    ("fig07a", "Latency & efficiency vs deployment size", [
        ("B root median latency", "160 ms", "B/latency", ms),
        ("B root efficiency", "49%", "B/efficiency", pct),
        ("F root median latency", "15 ms", "F/latency", ms),
        ("F root efficiency", "39%", "F/efficiency", pct),
        ("R110 median latency", "lowest of the rings", "R110/latency", ms),
        ("R110 efficiency", "below R28's", "R110/efficiency", pct),
    ]),
    ("fig07b", "Coverage radius of sites", [
        ("users within 500 km of any root site", "91%", "All Roots/at_500km", pct),
        ("users within 1000 km of an L-root site", "94%", "L root/at_1000km", pct),
        ("users within 1000 km of an R110 site", "90%", "R110/at_1000km", pct),
    ]),
    ("fig08", "Amortisation with junk included", [
        ("median queries/user/day (CDN counts)", "22 (~20× Fig. 3)", "cdn/median", num),
        ("median queries/user/day (APNIC counts)", "6 (~6× Fig. 3)", "apnic/median", num),
    ]),
    ("fig09", "Amortisation without the /24 join", [
        ("median queries/user/day", "0.036 (~1/30 of Fig. 3)", "cdn/median", num),
    ]),
    ("fig10", "Queries away from the favorite site", [
        ("L-root /24s with a single site", ">90%", "L/frac_single_site", pct),
        ("B-root /24s with a single site", ">80%", "B/frac_single_site", pct),
    ]),
    ("fig11a", "2020 DITL amortisation", [
        ("median queries/user/day", "~1 (unchanged)", "cdn/median", num),
    ]),
    ("fig11b", "2020 DITL inflation", [
        ("users inflated >20 ms (All Roots)", "~10% (unchanged)", "all/frac_over_20ms", pct),
    ]),
    ("fig12", "Client DNS latency at a recursive", [
        ("queries answered sub-millisecond (cache)", "~50%", "frac_sub_ms", pct),
        ("overall root cache miss rate", "0.5% (0.1–2.5% daily)", "overall_miss_rate", pct),
    ]),
    ("fig13", "Root latency per user query", [
        ("queries generating a root request", "<1%", "frac_touching_root", pct),
        ("queries waiting >100 ms on roots", "<0.1%", "frac_over_100ms", pct),
        ("author: root latency / page-load time", "1.6%", "author/root_share_of_page_load", pct),
        ("author: root latency / active browsing", "0.05%", "author/root_share_of_browsing",
         lambda x: f"{x:.3%}"),
    ]),
    ("fig14", "Relative latency map (R110)", [
        ("median RTT near front-ends (≤500 km)", "low (green)", "near_median_ms", ms),
        ("median RTT far from front-ends (>2000 km)", "high (red)", "far_median_ms", ms),
    ]),
    ("table1", "Root operator survey", [
        ("orgs citing latency for growth", "8", "growth/Latency", str),
        ("orgs citing DDoS resilience", "9", "growth/DDoS Resilience", str),
    ]),
    ("table2", "Dataset summary", [
        ("invalid share of root queries", "~60% (31B of 51.9B)", "fraction_invalid", pct),
        ("IPv6 share", "12%", "fraction_ipv6", pct),
        ("private-source share", "7%", "fraction_private", pct),
    ]),
    ("table3", "Dataset strengths/weaknesses", [
        ("datasets catalogued", "9", "n_datasets", str),
    ]),
    ("table4", "DITL∩CDN overlap", [
        ("DITL recursives matched (exact IP)", "2.45%", "ip/ditl_recursives", pct),
        ("DITL volume matched (exact IP)", "8.4%", "ip/ditl_volume", pct),
        ("DITL recursives matched (/24)", "29.3%", "slash24/ditl_recursives", pct),
        ("DITL volume matched (/24)", "72.2%", "slash24/ditl_volume", pct),
        ("CDN recursives matched (/24)", "78.8%", "slash24/cdn_recursives", pct),
        ("CDN users matched (/24)", "88.1%", "slash24/cdn_users", pct),
    ]),
    ("table5", "Redundant root queries (App. E)", [
        ("root queries that are redundant", "79.8%", "fraction_redundant", pct),
        ("redundant queries matching the bug pattern", "~90%+", "fraction_bug_pattern", pct),
    ]),
    ("appc", "RTTs per page load", [
        ("lower bound", "10", "lower_bound", str),
        ("loads within 10 RTTs", "a few percent", "frac_within_10", pct),
        ("loads within 20 RTTs", "90%", "frac_within_20", pct),
    ]),
]

HEADER = """# EXPERIMENTS — paper vs. measured

Generated by ``python scripts/generate_experiments_md.py --scale {scale}``
(seed {seed}).  "Paper" quotes the values reported for the authors' real
datasets; "measured" is this reproduction on the synthetic Internet
substrate.  Per DESIGN.md, absolute numbers are not expected to match —
the substrate is a simulator, not the authors' testbed — but *shape*
(who wins, by what rough factor, where crossovers fall) should and does
hold.  Regenerate any single artifact with
``anycast-repro run <id> --scale {scale}``.

Known, documented divergences:

* **Fig. 3 Ideal line** — our resolver /24s aggregate more users than
  reality (thousands of clusters instead of millions), so the Ideal
  median lands 1–2 orders of magnitude below the paper's 0.007 while the
  CDN/APNIC medians still land at ~1; the gap *between* the lines, which
  carries the paper's argument, is preserved (orders of magnitude).
* **Fig. 6a letters** — our letters' 2-AS shares span ~0–25% versus the
  paper's 5–44%; the ordering (CDN ≫ partnered letters ≫ transit-only
  letters) is preserved.
* **Fig. 5 CDN tails** — our engineered CDN is slightly cleaner than the
  real one (fewer mid-tail inflated users); every CDN-vs-roots and
  ring-vs-ring comparison keeps the paper's direction.

"""


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=("small", "medium"), default="medium")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="EXPERIMENTS.md")
    args = parser.parse_args()

    scenario = Scenario(scale=args.scale, seed=args.seed)
    lines = [HEADER.format(scale=args.scale, seed=args.seed)]
    for experiment_id, title, rows in COMPARISONS:
        started = time.time()
        data = run_experiment(experiment_id, scenario).data
        elapsed = time.time() - started
        lines.append(f"## {experiment_id} — {title}\n")
        lines.append("| quantity | paper | measured |")
        lines.append("|---|---|---|")
        for label, paper_value, key, fmt in rows:
            value = data.get(key)
            rendered = fmt(value) if value is not None else "n/a"
            lines.append(f"| {label} | {paper_value} | {rendered} |")
        lines.append(f"\n*(analysis: {elapsed:.1f}s; check: "
                     "`tests/test_experiments.py::TestShapeTargets`)*\n")
        print(f"{experiment_id}: done ({elapsed:.1f}s)")
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
