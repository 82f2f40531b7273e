"""``failure_impact`` against its original per-location loop.

``failure_impact`` reduces masked columns (integer user sums, bincount
site loads, CDFs over the served rows).  The loop it replaced is kept
here as the oracle: every field must come out identical, not merely
close — user counts are integers below 2**53, so every float sum is
exact in any order.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.anycast import apply_mutation, plan_add_regions, plan_withdraw
from repro.anycast.resilience import FailureImpact, failure_impact
from repro.core.cdf import WeightedCdf
from repro.users.population import UserBase


def failure_impact_loop(before, after, user_base) -> FailureImpact:
    """The original one-location-at-a-time implementation (the oracle)."""
    locations = list(user_base)
    asns = [loc.asn for loc in locations]
    regions = [loc.region_id for loc in locations]
    batch_before = before.resolve_many(asns, regions)
    batch_after = after.resolve_many(asns, regions)

    rtts_before: list[float] = []
    rtts_after: list[float] = []
    weights: list[float] = []
    rerouted = 0
    measured = 0
    load_before: dict[int, float] = {}
    load_after: dict[int, float] = {}
    for index, location in enumerate(locations):
        if not (batch_before.ok[index] and batch_after.ok[index]):
            continue
        measured += location.users
        if batch_before.site_region_ids[index] != batch_after.site_region_ids[index]:
            rerouted += location.users
        rtts_before.append(float(batch_before.base_rtt_ms[index]))
        rtts_after.append(float(batch_after.base_rtt_ms[index]))
        weights.append(float(location.users))
        site_before = int(batch_before.site_ids[index])
        site_after = int(batch_after.site_ids[index])
        load_before[site_before] = load_before.get(site_before, 0.0) + location.users
        load_after[site_after] = load_after.get(site_after, 0.0) + location.users
    if not weights:
        raise ValueError("no users could be measured against both deployments")
    cdf_before = WeightedCdf(rtts_before, weights)
    cdf_after = WeightedCdf(rtts_after, weights)
    total = sum(weights)
    return FailureImpact(
        name=f"{before.name} → {after.name}",
        users_measured=measured,
        users_rerouted=rerouted,
        median_rtt_before_ms=cdf_before.median,
        median_rtt_after_ms=cdf_after.median,
        p95_rtt_before_ms=cdf_before.quantile(0.95),
        p95_rtt_after_ms=cdf_after.quantile(0.95),
        max_site_share_before=max(load_before.values()) / total,
        max_site_share_after=max(load_after.values()) / total,
    )


def assert_identical(got: FailureImpact, want: FailureImpact) -> None:
    for field in dataclasses.fields(FailureImpact):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert type(a) is type(b), (field.name, type(a), type(b))
        assert a == b, (field.name, a, b)


@pytest.fixture(scope="module")
def k_root(letters):
    return letters["K"]


@pytest.fixture(scope="module")
def withdrawn(k_root):
    return apply_mutation(k_root, plan_withdraw(k_root, [0]))


@pytest.fixture(scope="module")
def unrouted_asn(topology):
    """An ASN outside the topology: no deployment holds a route for it."""
    return max(topology.nodes) + 1


def test_withdraw_matches_the_loop(k_root, withdrawn, user_base):
    got = failure_impact(k_root, withdrawn, user_base)
    assert got.users_rerouted > 0
    assert_identical(got, failure_impact_loop(k_root, withdrawn, user_base))


def test_add_matches_the_loop(k_root, user_base):
    added = apply_mutation(k_root, plan_add_regions(k_root, [3, 7]))
    assert_identical(
        failure_impact(k_root, added, user_base),
        failure_impact_loop(k_root, added, user_base),
    )


def test_unserved_location_is_left_out(k_root, withdrawn, user_base, unrouted_asn):
    # No small deployment leaves a user-base row unserved, so add one.
    stray = dataclasses.replace(user_base.locations[0], asn=unrouted_asn)
    base = UserBase([*user_base.locations, stray])
    got = failure_impact(k_root, withdrawn, base)
    assert_identical(got, failure_impact_loop(k_root, withdrawn, base))
    served = failure_impact(k_root, withdrawn, user_base)
    assert got.users_measured == served.users_measured


def test_all_unserved_base_raises(k_root, withdrawn, user_base, unrouted_asn):
    base = UserBase(
        [dataclasses.replace(loc, asn=unrouted_asn) for loc in user_base.locations[:3]]
    )
    with pytest.raises(ValueError, match="no users could be measured"):
        failure_impact(k_root, withdrawn, base)
    with pytest.raises(ValueError, match="no users could be measured"):
        failure_impact_loop(k_root, withdrawn, base)
