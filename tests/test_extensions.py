"""Extension modules: resilience drills, hijacks, RFC 8806, unicast."""

import pytest

from repro.anycast import (
    fail_pops,
    fail_region,
    failure_impact,
    hijack_cdn,
    hijack_letter,
    withdraw_sites,
)
from repro.anycast.hijack import HIJACK_ATTACHMENT_ID
from repro.core import compare_with_unicast, simulate_local_root_adoption
from repro.topology import ASKind


class TestWithdrawSites:
    def test_survivor_counts(self, letters):
        deployment = letters["K"]
        degraded = withdraw_sites(deployment, [0, 1, 2])
        assert len(degraded.sites) == len(deployment.sites) - 3
        assert degraded.n_global_sites == deployment.n_global_sites - 3

    def test_unknown_site_rejected(self, letters):
        with pytest.raises(ValueError):
            withdraw_sites(letters["B"], [999])

    def test_cannot_go_dark(self, letters):
        deployment = letters["B"]  # two global sites
        with pytest.raises(ValueError):
            withdraw_sites(deployment, [0, 1])

    def test_failed_regions_not_served(self, letters, internet):
        deployment = letters["J"]
        failed_region = deployment.sites[0].region_id
        degraded = withdraw_sites(
            deployment,
            [s.site_id for s in deployment.sites if s.region_id == failed_region],
        )
        assert all(s.region_id != failed_region for s in degraded.sites)
        for asn in internet.eyeball_asns[:30]:
            region = internet.topology.node(asn).home_region
            flow = degraded.resolve(asn, region)
            assert flow is not None
            assert flow.site.region_id != failed_region

    def test_fail_region_helper(self, letters):
        deployment = letters["F"]
        region = deployment.sites[0].region_id
        degraded = fail_region(deployment, region)
        assert all(s.region_id != region for s in degraded.sites)
        with pytest.raises(ValueError):
            fail_region(deployment, region_id=-1)

    def test_latency_never_improves_under_failure(self, letters, user_base):
        deployment = letters["K"]
        degraded = withdraw_sites(deployment, [0, 1, 2, 3])
        impact = failure_impact(deployment, degraded, user_base)
        assert impact.median_rtt_after_ms >= impact.median_rtt_before_ms - 2.0
        assert 0.0 <= impact.rerouted_fraction <= 1.0
        assert impact.users_measured > 0

    def test_withdrawal_reroutes_users(self, letters, user_base):
        deployment = letters["K"]
        degraded = withdraw_sites(deployment, [0, 1, 2])
        impact = failure_impact(deployment, degraded, user_base)
        assert impact.rerouted_fraction > 0.0
        assert impact.median_rtt_after_ms >= impact.median_rtt_before_ms - 2.0


class TestFailPops:
    def test_rings_shrink(self, cdn):
        degraded = fail_pops(cdn, [0, 1])
        for name, ring in degraded.rings.items():
            assert len(ring.sites) == len(cdn.rings[name].sites) - 2

    def test_unknown_pop_rejected(self, cdn):
        with pytest.raises(ValueError):
            fail_pops(cdn, [9_999])

    def test_cannot_fail_everything(self, cdn):
        with pytest.raises(ValueError):
            fail_pops(cdn, range(len(cdn.fabric.pops)))

    def test_service_survives_failure(self, cdn, internet, user_base):
        degraded = fail_pops(cdn, [0])
        impact = failure_impact(
            cdn.largest_ring, degraded.largest_ring, user_base
        )
        assert impact.users_measured > 0
        # a single-PoP failure is absorbed with modest degradation
        assert impact.median_degradation_ms < 100.0

    def test_metro_outage_still_serves_users(self, cdn, user_base):
        region = cdn.fabric.pops[0].region_id
        failed = [p.site_id for p in cdn.fabric.pops if p.region_id == region]
        degraded = fail_pops(cdn, failed)
        impact = failure_impact(cdn.largest_ring, degraded.largest_ring, user_base)
        assert impact.users_measured > 0


class TestHijack:
    def test_transit_hijacker_captures_users(self, scenario, letters, user_base):
        transit = scenario.internet.topology.ases_of_kind(ASKind.TRANSIT)[0]
        result = hijack_letter(letters["K"], transit).measure(user_base)
        assert result.user_capture_fraction > 0.0
        assert result.ases_total > 0

    def test_cdn_capture_stays_partial(self, scenario, cdn, user_base):
        # Directly peered users are immune: capture stays well below 100%.
        transit = scenario.internet.topology.ases_of_kind(ASKind.TRANSIT)[0]
        result = hijack_cdn(cdn.fabric, transit).measure(user_base)
        assert result.user_capture_fraction < 0.6

    def test_hijacker_always_captures_itself(self, scenario, letters):
        transit = scenario.internet.topology.ases_of_kind(ASKind.TRANSIT)[0]
        result = hijack_letter(letters["K"], transit)
        route = result.routing.route(transit)
        assert route is not None and route.attachment_id == HIJACK_ATTACHMENT_ID

    def test_directly_peered_users_are_immune(self, scenario, cdn, user_base):
        """Peer routes beat the hijacker's provider-class leakage."""
        topology = scenario.internet.topology
        transit = topology.ases_of_kind(ASKind.TRANSIT)[1]
        result = hijack_cdn(cdn.fabric, transit)
        peered = {
            a.host_asn
            for a in cdn.fabric.routing.attachments.values()
            if topology.node(a.host_asn).kind is ASKind.EYEBALL
        }
        for asn in list(peered)[:50]:
            if asn == transit:
                continue
            assert not result.captures(asn)

    def test_prepend_weakens_hijack(self, scenario, letters, user_base):
        transit = scenario.internet.topology.ases_of_kind(ASKind.TRANSIT)[0]
        from repro.anycast import simulate_hijack

        deployment = letters["K"]
        strong = simulate_hijack(
            deployment.topology, deployment.origin_asn,
            list(deployment.routing.attachments.values()), transit,
        )
        weak = simulate_hijack(
            deployment.topology, deployment.origin_asn,
            list(deployment.routing.attachments.values()), transit, prepend=6,
        )
        strong_result = type(strong)(
            victim="K", hijacker_asn=transit, routing=strong.routing,
            topology=deployment.topology,
        ).measure(user_base)
        weak_result = type(weak)(
            victim="K", hijacker_asn=transit, routing=weak.routing,
            topology=deployment.topology,
        ).measure(user_base)
        assert weak_result.user_capture_fraction <= strong_result.user_capture_fraction

    def test_unknown_hijacker_rejected(self, scenario, letters):
        with pytest.raises(KeyError):
            hijack_letter(letters["K"], 999_999)


class TestLocalRoot:
    def test_adoption_reduces_traffic(self, scenario):
        outcome = simulate_local_root_adoption(
            scenario.joined_2018, scenario.zone, adoption_fraction=0.1
        )
        assert outcome.traffic_reduction > 0.2
        assert outcome.qpud_after.median <= outcome.qpud_before.median

    def test_by_volume_beats_by_users_on_traffic(self, scenario):
        by_volume = simulate_local_root_adoption(
            scenario.joined_2018, scenario.zone, 0.1, strategy="by_volume"
        )
        by_users = simulate_local_root_adoption(
            scenario.joined_2018, scenario.zone, 0.1, strategy="by_users"
        )
        assert by_volume.traffic_reduction >= by_users.traffic_reduction - 0.01

    def test_full_adoption_collapses_to_ideal(self, scenario):
        outcome = simulate_local_root_adoption(
            scenario.joined_2018, scenario.zone, adoption_fraction=1.0
        )
        refresh = scenario.zone.ideal_daily_root_queries()
        assert outcome.traffic_after_qpd <= refresh * outcome.recursives + 1e-6
        assert outcome.traffic_reduction > 0.5

    def test_zero_adoption_changes_nothing(self, scenario):
        outcome = simulate_local_root_adoption(
            scenario.joined_2018, scenario.zone, adoption_fraction=0.0
        )
        assert outcome.traffic_reduction == pytest.approx(0.0)
        assert outcome.median_shift == pytest.approx(0.0)

    def test_validation(self, scenario):
        with pytest.raises(ValueError):
            simulate_local_root_adoption(scenario.joined_2018, scenario.zone, 1.5)
        with pytest.raises(ValueError):
            simulate_local_root_adoption(
                scenario.joined_2018, scenario.zone, 0.1, strategy="bogus"
            )
        with pytest.raises(ValueError):
            simulate_local_root_adoption([], scenario.zone, 0.1)


class TestUnicastComparison:
    def test_penalty_nonnegative_and_bounded(self, scenario, letters, user_base):
        comparison = compare_with_unicast(letters["M"], user_base)
        assert comparison.anycast_penalty.values.min() >= 0.0
        assert comparison.median_penalty_ms < 150.0
        assert 0.0 <= comparison.fraction_optimal_site <= 1.0
        assert comparison.users_measured > 0

    def test_well_peered_letter_has_small_penalty(self, scenario, letters, user_base):
        """F (CDN-partnered) leaves less on the table than C (transit)."""
        f_cmp = compare_with_unicast(letters["F"], user_base)
        c_cmp = compare_with_unicast(letters["C"], user_base)
        assert f_cmp.median_penalty_ms <= c_cmp.median_penalty_ms + 10.0

    def test_max_locations_sampling(self, scenario, letters, user_base):
        comparison = compare_with_unicast(letters["M"], user_base, max_locations=20)
        assert comparison.users_measured <= sum(
            location.users for location in list(user_base)[:20]
        )


class TestDdosDilution:
    @pytest.fixture(scope="class")
    def botnet(self, scenario):
        from repro.anycast import build_botnet

        return build_botnet(scenario.internet, n_bots=400, seed=1)

    def test_larger_deployments_dilute_attacks(self, scenario, botnet):
        """Table 1's DDoS-resilience driver: more sites, smaller blast
        per site."""
        from repro.anycast import simulate_attack

        small = simulate_attack(scenario.letters_2018["B"], botnet)
        large = simulate_attack(scenario.letters_2018["L"], botnet)
        assert large.max_site_share < small.max_site_share
        assert large.herfindahl() < small.herfindahl()
        assert large.sites_hit > small.sites_hit

    def test_largest_ring_dilutes_like_largest_letter(self, scenario):
        from repro.anycast import build_botnet, simulate_attack

        botnet = build_botnet(scenario.internet, n_bots=800, seed=11)
        shares = {
            name: simulate_attack(scenario.letters_2018[name], botnet).max_site_share
            for name in ("B", "L")
        }
        ring = simulate_attack(scenario.cdn.largest_ring, botnet).max_site_share
        assert shares["L"] < shares["B"]
        assert ring < shares["B"]

    def test_load_conserved(self, scenario, botnet):
        from repro.anycast import simulate_attack

        outcome = simulate_attack(scenario.letters_2018["K"], botnet)
        assert sum(outcome.load_by_site.values()) == pytest.approx(
            outcome.total_volume
        )
        assert outcome.total_volume <= botnet.total_volume + 1e-9

    def test_regional_botnet_concentrates(self, scenario):
        from repro.anycast import build_botnet, simulate_attack

        deployment = scenario.letters_2018["C"]
        region = deployment.sites[0].region_id
        uniform = build_botnet(scenario.internet, n_bots=400, seed=3)
        regional = build_botnet(
            scenario.internet, n_bots=400,
            concentration_region=region, concentration=0.9, seed=3,
        )
        assert (
            simulate_attack(deployment, regional).herfindahl()
            >= simulate_attack(deployment, uniform).herfindahl() - 0.05
        )

    def test_surviving_fraction_monotone_in_capacity(self, scenario, botnet):
        from repro.anycast import simulate_attack

        outcome = simulate_attack(scenario.letters_2018["K"], botnet)
        low = outcome.surviving_fraction(per_site_capacity=1.0)
        high = outcome.surviving_fraction(per_site_capacity=1e9)
        assert low <= high == 1.0

    def test_botnet_validation(self, scenario):
        from repro.anycast import build_botnet

        with pytest.raises(ValueError):
            build_botnet(scenario.internet, n_bots=0)
        with pytest.raises(ValueError):
            build_botnet(scenario.internet, concentration=1.5, concentration_region=0)
        with pytest.raises(ValueError):
            build_botnet(scenario.internet, concentration=0.5)
