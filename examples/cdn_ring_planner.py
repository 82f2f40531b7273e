#!/usr/bin/env python3
"""Ring planner: how many front-ends does a latency target need?

Section 5.2's operational question, asked forward: given a latency goal
per page load, how large must an anycast ring be?  The example sweeps
ring sizes, measures per-ring user latency from server-side logs, scales
it by the Appendix-C 10-RTT page model, and reports the marginal benefit
of each expansion step — reproducing the paper's diminishing-returns
"groups" (R28≈R47, R74≈R95≈R110).

A second phase turns to the root-operator side of the paper: a what-if
sweep over K-root's sites using the **delta path**
(``repro.anycast.delta``) — withdraw each site in turn, measure who
reroutes and what it costs, and try a few expansion candidates.  Each
mutation is applied by scoped re-propagation plus an in-place kernel
patch (``apply_mutation``), with one full ``rebuild`` kept as the
oracle cross-check, so the sweep is both fast and provably exact.

Usage::

    python examples/cdn_ring_planner.py [--scale small|medium] \
        [--target-ms 150]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.anycast import CdnSpec, build_cdn
from repro.anycast.delta import apply_mutation, plan_add_regions, plan_withdraw, rebuild
from repro.anycast.resilience import failure_impact
from repro.core import RTTS_PER_PAGE_LOAD, WeightedCdf, format_table
from repro.experiments import Scenario
from repro.measurement import collect_server_logs

RING_SIZES = (8, 16, 28, 47, 74, 95, 110)


def whatif_sweep(scenario: Scenario) -> None:
    """Delta-path what-ifs on K-root: site criticality, then expansion."""
    letter = scenario.letters_2018["K"]
    users = scenario.user_base

    global_sites = [s for s in letter.sites if s.is_global]
    rows = []
    for site in global_sites[:8]:  # the sweep pattern; capped for demo brevity
        mutated = apply_mutation(letter, plan_withdraw(letter, [site.site_id]))
        impact = failure_impact(letter, mutated, users)
        rows.append(
            {
                "withdrawn": site.name,
                "rerouted_users": f"{impact.rerouted_fraction:.1%}",
                "median_shift_ms": f"{impact.median_degradation_ms:+.2f}",
                "peak_site_share": f"{impact.max_site_share_after:.1%}",
            }
        )
    rows.sort(key=lambda r: -float(r["rerouted_users"].rstrip("%")))
    print(f"What-if: single-site withdrawals from {letter.name} (delta path)")
    print(format_table(rows))
    print()

    # Expansion candidates: the most-populous regions K has no site in.
    covered = {s.region_id for s in letter.sites}
    candidates = [
        r.region_id
        for r in scenario.internet.world.top_regions(12)
        if r.region_id not in covered
    ][:3]
    rows = []
    for region_id in candidates:
        grown = apply_mutation(letter, plan_add_regions(letter, [region_id]))
        impact = failure_impact(letter, grown, users)
        rows.append(
            {
                "add_region": str(region_id),
                "rerouted_users": f"{impact.rerouted_fraction:.1%}",
                "median_shift_ms": f"{impact.median_degradation_ms:+.2f}",
            }
        )
    print(f"What-if: expansion candidates for {letter.name} (delta path)")
    print(format_table(rows))
    print()

    # Oracle cross-check: one mutation through both paths, compared on
    # the full user base — the delta sweep above is only trustworthy
    # because this equality holds (exhaustively in tests/test_delta.py).
    mutation = plan_withdraw(letter, [global_sites[0].site_id])
    via_delta = apply_mutation(letter, mutation)
    via_rebuild = rebuild(letter, mutation)
    asns = [loc.asn for loc in users]
    regions = [loc.region_id for loc in users]
    bd = via_delta.resolve_many(asns, regions)
    br = via_rebuild.resolve_many(asns, regions)
    exact = (
        np.array_equal(bd.ok, br.ok)
        and np.array_equal(bd.site_ids, br.site_ids)
        and np.array_equal(bd.base_rtt_ms, br.base_rtt_ms, equal_nan=True)
    )
    print(f"Delta vs rebuild oracle on {len(asns)} resolutions: "
          f"{'bitwise identical' if exact else 'DIVERGED'}")
    if not exact:
        raise SystemExit("delta path diverged from the rebuild oracle")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=("small", "medium"), default="small")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--target-ms", type=float, default=150.0,
        help="median per-page-load latency goal (ms)",
    )
    args = parser.parse_args()

    scenario = Scenario(scale=args.scale, seed=args.seed)
    cdn = build_cdn(scenario.internet, CdnSpec(ring_sizes=RING_SIZES), seed=args.seed + 9)
    logs = collect_server_logs(cdn, scenario.user_base, seed=args.seed + 10)

    rows = []
    previous_page_ms = None
    recommended = None
    for name in sorted(cdn.rings, key=lambda n: int(n.lstrip("R"))):
        ring_rows = logs.for_ring(name)
        cdf = WeightedCdf(
            [row.median_rtt_ms for row in ring_rows],
            [float(row.users) for row in ring_rows],
        )
        page_ms = cdf.median * RTTS_PER_PAGE_LOAD
        saved = "" if previous_page_ms is None else f"{previous_page_ms - page_ms:+.0f}"
        rows.append(
            {
                "ring": name,
                "median_ms_per_rtt": f"{cdf.median:.1f}",
                "median_ms_per_page": f"{page_ms:.0f}",
                "p90_ms_per_page": f"{cdf.quantile(0.9) * RTTS_PER_PAGE_LOAD:.0f}",
                "marginal_ms_per_page": saved,
            }
        )
        if recommended is None and page_ms <= args.target_ms:
            recommended = name
        previous_page_ms = page_ms

    print(f"Ring sweep toward a {args.target_ms:.0f} ms/page median target")
    print(format_table(rows))
    print()
    if recommended:
        print(f"Smallest ring meeting the target: {recommended}")
    else:
        print(
            "No ring meets the target — the residual latency is access-side, "
            "not footprint (the paper's diminishing-returns regime)."
        )
    print()
    whatif_sweep(scenario)


if __name__ == "__main__":
    main()
