"""Substrate checks and design-choice ablations on the small world.

Not paper figures: these check the simulator's load-bearing pieces
(BGP coverage, flow resolution, the Eq. 2 latency floor) and quantify
the design choices DESIGN.md calls out — CDN traffic engineering,
per-flow early exit versus per-AS catchments, letter preference, the
two-day TLD TTL, and deployment size.
"""

from repro.anycast import CdnSpec, LetterSpec, build_cdn, build_letter
from repro.bgp import propagate
from repro.core import (
    WeightedCdf,
    amortize_cdn,
    cdn_geographic_inflation,
    root_geographic_inflation,
)
from repro.ditl import DitlGenParams, generate_ditl, join_ditl_cdn, preprocess
from repro.dns import RootZone
from repro.geo import optimal_rtt_ms
from repro.measurement import collect_server_logs
from repro.users.recursives import RecursivePopulation


def test_bgp_propagation_covers_the_internet(scenario):
    deployment = scenario.letters_2018["J"]
    attachments = list(deployment.routing.attachments.values())
    topology = scenario.internet.topology
    routing = propagate(topology, deployment.origin_asn, attachments, 7)
    assert routing.coverage(topology) > 0.95


def test_every_eyeball_resolves(scenario):
    deployment = scenario.letters_2018["F"]
    topology = scenario.internet.topology
    for asn in scenario.internet.eyeball_asns:
        assert deployment.resolve(asn, topology.node(asn).home_region) is not None


def test_traffic_engineering_ablation(scenario):
    """Disable the CDN's TE and measure the inflation penalty."""
    cdn = build_cdn(scenario.internet, CdnSpec(te_quality=0.0), seed=scenario.seed + 7)
    logs = collect_server_logs(cdn, scenario.user_base, seed=1)
    without_te = cdn_geographic_inflation(logs, cdn)
    with_te = cdn_geographic_inflation(scenario.server_logs, scenario.cdn)
    largest = sorted(with_te.names, key=lambda n: int(n.lstrip("R")))[-1]
    # Engineering buys a visibly fatter zero-inflation mass.
    assert with_te.efficiency(largest) >= without_te.efficiency(largest) - 0.02
    assert (
        without_te.per_deployment[largest].quantile(0.95)
        >= with_te.per_deployment[largest].quantile(0.95) - 1.0
    )


def test_early_exit_ablation(scenario):
    """Flow-level early exit versus the per-AS route choice.

    For clients of multi-attachment terminal hosts, early exit should
    never pick a farther attachment than BGP's single per-AS choice.
    """
    deployment = scenario.letters_2018["F"]
    topology = scenario.internet.topology
    world = scenario.internet.world
    routing = deployment.routing
    worse = total = 0
    for asn in scenario.internet.eyeball_asns:
        region = topology.node(asn).home_region
        flow = deployment.resolve(asn, region)
        route = routing.route(asn)
        if flow is None or route is None:
            continue
        per_as = routing.attachments[route.attachment_id]
        here = world.region(region).location
        flow_km = world.region(flow.site.region_id).location.distance_km(here)
        as_km = world.region(per_as.region_id).location.distance_km(here)
        total += 1
        if flow_km > as_km + 1.0:
            worse += 1
    assert total > 0
    assert worse == 0  # early exit only ever helps or matches


def test_server_logs_respect_the_latency_floor(scenario):
    """Every measured CDN RTT respects the Eq. 2 physical floor."""
    logs = scenario.server_logs
    violations = 0
    for row in logs.rows:
        ring = scenario.cdn.rings[row.ring]
        floor = optimal_rtt_ms(ring.min_global_distance_km(row.region_id))
        if row.median_rtt_ms < floor * 0.8:  # generous: jitter is ±
            violations += 1
    assert violations / max(1, len(logs.rows)) < 0.01


def _joined_capture(scenario, zone, seed, params=None):
    """DITL∩CDN rows for a capture regenerated over every 4th recursive."""
    subsample = RecursivePopulation(clusters=scenario.recursives.clusters[::4])
    capture = generate_ditl(
        scenario.internet, scenario.letters_2018, subsample, zone,
        params=params, seed=seed,
    )
    rows, _ = join_ditl_cdn(
        preprocess(capture), scenario.cdn_counts, scenario.geolocator, scenario.mapper,
    )
    return rows


def test_letter_preference_ablation(scenario):
    """The §3.2 'All Roots' effect needs letter preference.

    Recursives favouring low-latency letters is what makes system-wide
    root inflation much milder than individual letters'.  Regenerate the
    capture with preference off (gamma=0: uniform querying) and strong
    (gamma=4), and compare the All-Roots geographic-inflation median.
    """

    def all_roots_median(gamma: float) -> float:
        rows = _joined_capture(
            scenario, scenario.zone, 777, DitlGenParams(letter_pref_gamma=gamma)
        )
        result = root_geographic_inflation(rows, scenario.letters_2018)
        assert result.combined is not None
        return result.combined.median

    # Preferential querying reduces the per-query inflation users see.
    assert all_roots_median(4.0) <= all_roots_median(0.0) + 0.5


def test_tld_ttl_ablation(scenario):
    """§4's mechanism is the two-day TLD TTL.

    With a one-hour TTL zone, once-per-TTL refresh traffic grows 48×
    and the Fig. 3 median moves accordingly: root latency would stop
    being amortised away.
    """
    n_tlds = len(scenario.zone.tlds)

    def median_for(ttl_s: int) -> float:
        zone = RootZone(n_tlds=n_tlds, ttl_s=ttl_s, seed=1)
        return amortize_cdn(_joined_capture(scenario, zone, 778)).median

    assert median_for(3_600) > 10.0 * median_for(172_800)  # ~48× in expectation


def test_site_count_sweep(scenario):
    """§7.2's size effect within one deployment style.

    Build the same population-placed, moderately peered letter at
    2/10/40 sites: median latency falls, and so does the fraction of
    users at their closest site (efficiency).
    """

    def evaluate(n_sites: int) -> tuple[float, float]:
        spec = LetterSpec(
            f"sweep{n_sites}", n_sites, 0, "population",
            peer_fraction=0.5, peers_per_site=6, origin_asn=65200 + n_sites,
        )
        deployment = build_letter(scenario.internet, spec, seed=99)
        rtts, weights, at_closest = [], [], 0.0
        for location in scenario.user_base:
            flow = deployment.resolve(location.asn, location.region_id)
            if flow is None:
                continue
            rtts.append(flow.base_rtt_ms)
            weights.append(float(location.users))
            nearest = deployment.nearest_global_site(location.region_id)
            if flow.site.site_id == nearest.site_id:
                at_closest += location.users
        return WeightedCdf(rtts, weights).median, at_closest / sum(weights)

    (latency_2, efficiency_2), _, (latency_40, efficiency_40) = (
        evaluate(n) for n in (2, 10, 40)
    )
    assert latency_40 < latency_2
    assert efficiency_40 <= efficiency_2 + 0.10
