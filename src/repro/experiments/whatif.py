"""Incremental what-if experiment: a canonical delta sequence on K-root.

``whatif01`` drives the paper's running comparative question — "what
happens to K-root's catchments as sites come and go?" — through the
delta machinery (:mod:`repro.anycast.delta`) while replaying the exact
same mutation plans through the full-rebuild oracle.  Its digest locks
two things at once into the golden file:

* the *analysis output* (rerouted users, latency shift) of a canonical
  withdraw → add → withdraw sequence, and
* the *bitwise equivalence* of the delta path against cold rebuilds
  (``delta_matches_rebuild`` — a digest drift here means the delta
  kernel produced different arrays than a fresh propagation).
"""

from __future__ import annotations

import numpy as np

from ..anycast import apply_mutation, plan_add_regions, plan_withdraw, rebuild
from ..anycast.resilience import failure_impact
from .base import ExperimentResult
from .scenario import Scenario

#: The kernel tables whose equality defines "bitwise identical".
KERNEL_TABLES = (
    "_as_ids",
    "_exit",
    "attachment_region_ids",
    "_cand_att",
    "_cand_region",
    "_cand_ok",
    "_cand_counts",
    "_hosts",
    "_routed_asns",
    "_path_len",
    "_fallback_att",
    "_terminal_host",
    "_hops",
)


def kernels_identical(a, b) -> bool:
    """Bitwise comparison of two :class:`FlowKernel`'s padded tables."""
    for name in KERNEL_TABLES:
        x, y = getattr(a, name), getattr(b, name)
        if x.shape != y.shape or not np.array_equal(x, y):
            return False
    return a._max_mid == b._max_mid and a._host_row == b._host_row


def deployments_identical(a, b) -> bool:
    """Routing-table and kernel equality between two deployments."""
    if dict(a.routing.items()) != dict(b.routing.items()):
        return False
    if a.routing.attachments != b.routing.attachments:
        return False
    return kernels_identical(a.kernel, b.kernel)


#: The canonical mutation sequence: withdraw K's site 0, open two new
#: sites, then lose two of the (renumbered) originals.
SEQUENCE = (
    ("withdraw", (0,)),
    ("add", (3, 7)),
    ("withdraw", (1, 2)),
)


def whatif01(scenario: Scenario) -> ExperimentResult:
    """Delta-path what-if sequence on K-root, oracle-checked (ROADMAP 5)."""
    baseline = scenario.letters_2018["K"]
    n_regions = len(scenario.internet.world.regions)

    result = ExperimentResult(
        "whatif01", "Incremental what-if: K-root delta sequence vs rebuild oracle"
    )
    via_delta = baseline
    via_rebuild = baseline
    matches = True
    for step, (kind, arg) in enumerate(SEQUENCE):
        if kind == "withdraw":
            plan_d = plan_withdraw(via_delta, list(arg))
            plan_r = plan_withdraw(via_rebuild, list(arg))
        else:
            regions = [r % n_regions for r in arg]
            plan_d = plan_add_regions(via_delta, regions)
            plan_r = plan_add_regions(via_rebuild, regions)
        via_delta = apply_mutation(via_delta, plan_d)
        via_rebuild = rebuild(via_rebuild, plan_r)
        step_ok = deployments_identical(via_delta, via_rebuild)
        matches = matches and step_ok
        result.data[f"step{step}/{kind}/sites"] = len(via_delta.sites)
        result.data[f"step{step}/{kind}/routes"] = len(via_delta.routing)
        result.data[f"step{step}/{kind}/matches_rebuild"] = step_ok

    impact = failure_impact(baseline, via_delta, scenario.user_base)
    result.data["delta_matches_rebuild"] = matches
    result.data["users_measured"] = impact.users_measured
    result.data["users_rerouted"] = impact.users_rerouted
    result.data["rerouted_fraction"] = impact.rerouted_fraction
    result.data["median_rtt_before_ms"] = impact.median_rtt_before_ms
    result.data["median_rtt_after_ms"] = impact.median_rtt_after_ms
    result.data["max_site_share_before"] = impact.max_site_share_before
    result.data["max_site_share_after"] = impact.max_site_share_after
    result.add(
        "Delta vs rebuild",
        f"3-step sequence bitwise-identical to cold rebuilds: {matches}",
    )
    result.add(
        "Impact",
        (
            f"{impact.users_rerouted}/{impact.users_measured} users rerouted "
            f"({impact.rerouted_fraction:.1%}); median RTT "
            f"{impact.median_rtt_before_ms:.2f} → {impact.median_rtt_after_ms:.2f} ms"
        ),
    )
    return result
