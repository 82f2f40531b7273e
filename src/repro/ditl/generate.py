"""DITL capture synthesis.

Turns the resolver population plus the deployed root letters into the
aggregate two-day captures the analysis pipeline consumes.  The
generating processes mirror what the paper identifies in the real data:

* legitimate TLD-refresh traffic, orders of magnitude above once-per-TTL
  because of cache sharding, evictions and resolver bugs
  (``cache_inefficiency``);
* junk — invalid-TLD and Chromium captive-portal queries — that is the
  *majority* of root traffic and concentrates at high-user /24s;
* PTR lookups, IPv6 queries, private-source leakage, and spoofed
  sources, each of which §2.1's preprocessing must strip;
* per-letter volumes skewed toward each resolver's low-latency letters
  (recursives preferentially query fast letters);
* per-site affinity: most /24s put all queries on one "favorite" site,
  a minority split across two (Appendix B.2 / Fig. 10);
* TCP handshakes for a small share of queries, giving the RTT samples
  behind latency inflation (Fig. 2b) — except for letters whose pcaps
  are malformed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..anycast import IndependentDeployment
from ..dns.records import RootZone
from ..geo import make_rng, optimal_rtt_ms
from ..topology import GeneratedInternet
from ..users.recursives import RecursivePopulation
from .capture import CATEGORIES, VALID, DitlCapture, LetterCapture, QueryRows, TcpRttRows

__all__ = ["DitlGenParams", "generate_ditl"]


@dataclass(frozen=True, slots=True)
class DitlGenParams:
    """Volume-model knobs (fractions are of total query volume)."""

    tcp_fraction: float = 0.03
    site_split_prob: float = 0.18
    spoof_fraction: float = 0.01
    private_fraction: float = 0.07
    ipv6_fraction: float = 0.12
    letter_pref_gamma: float = 2.0
    letter_pref_floor: float = 0.015
    #: Off-path (load-balanced secondary) route latency model: stretch
    #: over the optimal RTT plus fixed extra hops.
    secondary_stretch: float = 1.35
    secondary_extra_ms: float = 4.0


def _letter_weights(
    rtts: dict[str, float], gamma: float, floor: float
) -> dict[str, float]:
    """Steady-state letter preference: fast letters take most queries."""
    letters = sorted(rtts)
    inverse = np.array([1.0 / max(1.0, rtts[l]) for l in letters])
    weights = inverse**gamma
    weights = weights / weights.sum()
    weights = weights * (1.0 - floor * len(letters)) + floor
    weights = weights / weights.sum()
    return dict(zip(letters, weights))


def generate_ditl(
    internet: GeneratedInternet,
    letters: dict[str, IndependentDeployment],
    recursives: RecursivePopulation,
    zone: RootZone,
    year: int = 2018,
    params: DitlGenParams | None = None,
    seed: int = 0,
    duration_days: float = 2.0,
) -> DitlCapture:
    """Synthesise one DITL event over the deployed letters.

    Every draw comes from one ``ditl:{year}`` stream in a fixed order: per
    cluster a Dirichlet IP split, then per letter the site-split coins, one
    Poisson call over all (category, IP) means (one call per mean in the
    per-IP split branch), the IPv6 count and the TCP samples; last, each
    letter's spoofed and private noise rows.
    """
    params = params or DitlGenParams()
    rng = make_rng(seed, f"ditl:{year}")
    world = internet.world
    tcp_ok = {name: not _tcp_broken(deployment) for name, deployment in letters.items()}
    pairs: dict[str, list[tuple]] = {name: [] for name in letters}
    tcp: dict[str, list[tuple]] = {name: [] for name in letters}
    ideal_daily = zone.ideal_daily_root_queries()

    # Catchments first, in one columnar pass per letter; the per-cluster
    # loop below then only draws random volumes (resolution itself
    # consumes no randomness).
    clusters = [cluster for cluster in recursives if cluster.captured_in_ditl]
    cluster_asns = [cluster.asn for cluster in clusters]
    cluster_regions = [cluster.region_id for cluster in clusters]
    batches = {
        name: deployment.resolve_many(cluster_asns, cluster_regions)
        for name, deployment in letters.items()
    }

    for index, cluster in enumerate(clusters):
        sites = {}
        rtts = {}
        for name in letters:
            batch = batches[name]
            if not batch.ok[index]:
                continue
            sites[name] = int(batch.site_ids[index])
            rtts[name] = float(batch.base_rtt_ms[index])
        if not sites:
            continue
        weights = _letter_weights(rtts, params.letter_pref_gamma, params.letter_pref_floor)

        legit_daily = ideal_daily * cluster.cache_inefficiency
        # Junk follows users (Chromium probes, misconfigured hosts) plus a
        # small floor from the resolver's own automation.
        junk_daily = cluster.users * cluster.junk_per_user_daily + legit_daily * 0.10
        ptr_daily = cluster.users * cluster.ptr_per_user_daily + legit_daily * 0.01

        backends = np.array(cluster.backend_ips, dtype=np.uint32)
        ip_shares = rng.dirichlet(np.full(len(backends), 1.2))
        # Every letter's expected volume per category, and per (category,
        # IP) in draw order.  A category expecting nothing draws nothing:
        # Poisson(0) is 0 and consumes no randomness.
        volumes = np.multiply.outer(
            np.fromiter(weights.values(), float, len(weights)),
            [legit_daily, junk_daily, ptr_daily],
        )
        means = (np.maximum(volumes, 0.0)[:, :, None] * ip_shares).reshape(len(weights), -1)
        ips = np.concatenate([backends] * len(CATEGORIES))
        codes = np.repeat(np.arange(len(CATEGORIES), dtype=np.int8), len(backends))

        for k, name in enumerate(weights):
            deployment = letters[name]
            favorite = sites[name]

            # Site split: most /24s are single-site; some split to a
            # secondary global site via upstream load balancing.
            split = rng.uniform() < params.site_split_prob and deployment.n_global_sites > 1
            if split:
                others = [s.site_id for s in deployment.global_sites if s.site_id != favorite]
                secondary = int(rng.choice(others))
                secondary_share = float(rng.beta(2.0, 6.0))
                per_ip_mode = rng.uniform() < 0.5
            else:
                secondary = favorite
                secondary_share = 0.0
                per_ip_mode = False

            if per_ip_mode:
                # Whole IPs deviate to the secondary site.  Each count's
                # coin falls between two Poisson draws, so draw one by one;
                # a share of 1 or 0 sends the whole count one way.
                counts = np.zeros(len(ips), dtype=np.int64)
                shares = np.zeros(len(ips))
                for i, mean in enumerate(means[k].tolist()):
                    counts[i] = count = rng.poisson(mean)
                    if count > 0 and rng.uniform() < secondary_share:
                        shares[i] = 1.0
            else:
                counts = rng.poisson(means[k])
                shares = secondary_share

            # IPv6 share, reported separately and dropped by preprocessing.
            valid, invalid, ptr = volumes[k].tolist()
            total = valid + invalid + ptr
            v6 = int(rng.poisson(total * params.ipv6_fraction / (1.0 - params.ipv6_fraction)))
            pairs[name].append((ips, codes, counts, shares, favorite, secondary, v6))

            # TCP-handshake RTT samples (only letters with sane pcaps).
            if tcp_ok[name]:
                favorite_samples = int(rng.poisson(
                    valid * (1.0 - secondary_share) * params.tcp_fraction
                ))
                if favorite_samples > 0:
                    rtt = rtts[name] * float(rng.lognormal(mean=0.0, sigma=0.05))
                    tcp[name].append((cluster.slash24, favorite, rtt, favorite_samples))
                if split:
                    secondary_samples = int(rng.poisson(
                        valid * secondary_share * params.tcp_fraction
                    ))
                    if secondary_samples > 0:
                        here = world.region(cluster.region_id).location
                        there = deployment.site_location(secondary)
                        rtt = (
                            optimal_rtt_ms(here.distance_km(there)) * params.secondary_stretch
                            + params.secondary_extra_ms
                        ) * float(rng.lognormal(0.0, 0.05))
                        tcp[name].append((cluster.slash24, secondary, rtt, secondary_samples))

    captures = {}
    for name, deployment in letters.items():
        rows = _query_rows(pairs[name])
        captures[name] = LetterCapture(
            letter=name,
            rows=QueryRows.concat([rows, _noise_rows(deployment, rows, params, rng)]),
            tcp=TcpRttRows(*zip(*tcp[name])),
            tcp_ok=tcp_ok[name],
        )
    return DitlCapture(year=year, duration_days=duration_days, letters=captures)


def _query_rows(pairs: list[tuple]) -> QueryRows:
    """Lay out one letter's draws as query rows.

    A pair is one (cluster, letter) visit: ``counts`` over the cluster's
    (category, IP) grid with their ``ips`` and category ``codes``, the
    share of each count that goes to the ``secondary`` site rather than
    the ``favorite``, and the IPv6 count.  Per count come a secondary-site
    row then a favorite-site row, and after each pair its IPv6 row; empty
    rows are left out.
    """
    if not pairs:
        return QueryRows()
    pair_ips, pair_codes, counts, shares, favorite, secondary, v6 = zip(*pairs)
    sizes = np.fromiter(map(len, counts), np.int64, len(counts))
    ends = np.cumsum(sizes)
    counts = np.concatenate(counts)
    # One share per pair, or one per count (0 or 1) where whole IPs split.
    share = np.repeat([s if isinstance(s, float) else 0.0 for s in shares], sizes)
    for end, size, pair_shares in zip(ends.tolist(), sizes.tolist(), shares):
        if not isinstance(pair_shares, float):
            share[end - size:end] = pair_shares
    to_secondary = np.rint(counts * share).astype(np.int64)

    # Pair p's counts take two slots each, then one slot for its IPv6 row.
    pair_ids = np.arange(len(sizes))
    slot = 2 * np.arange(len(counts)) + np.repeat(pair_ids, sizes)
    v6_slot = 2 * ends + pair_ids

    def lay_out(secondary_rows, favorite_rows, v6_rows, dtype) -> np.ndarray:
        column = np.empty(2 * len(counts) + len(sizes), dtype=dtype)
        column[slot], column[slot + 1], column[v6_slot] = secondary_rows, favorite_rows, v6_rows
        return column

    queries = lay_out(to_secondary, counts - to_secondary, v6, np.int64)
    keep = queries > 0
    ips = np.concatenate(pair_ips)
    codes = np.concatenate(pair_codes)
    return QueryRows(
        lay_out(ips, ips, [grid[0] for grid in pair_ips], np.uint32)[keep],
        lay_out(np.repeat(secondary, sizes), np.repeat(favorite, sizes), favorite, np.int32)[keep],
        lay_out(codes, codes, VALID, np.int8)[keep],
        queries[keep],
        lay_out(False, False, True, bool)[keep],
    )


def _tcp_broken(deployment: IndependentDeployment) -> bool:
    """D and L roots delivered malformed pcaps in 2018; we mirror that by
    marking deployments whose names start with those letters."""
    return deployment.name.split()[0] in ("D", "L")


def _noise_rows(
    deployment: IndependentDeployment,
    rows: QueryRows,
    params: DitlGenParams,
    rng: np.random.Generator,
) -> QueryRows:
    """Spoofed-source and private-source traffic (§3.1's caveats).

    Sized against a letter's drawn ``rows``.  Each noise row draws its
    source, site and count in turn, so these draws stay scalar.
    """
    total = int(rows.queries.sum())
    if total == 0:
        return QueryRows()
    n_sites = deployment.n_global_sites
    noise = []

    # Spoofed sources look like valid traffic, so size them against
    # the valid volume — they are a small caveat (§3.1), not a flood.
    valid_total = int(rows.queries[(rows.category == VALID) & ~rows.ipv6].sum())
    spoof_total = valid_total * params.spoof_fraction
    n_spoof_rows = max(1, int(rng.integers(20, 60)))
    for _ in range(n_spoof_rows):
        source = int(rng.integers(0x0B000000, 0xDF000000))  # arbitrary space
        site = deployment.global_sites[int(rng.integers(0, n_sites))].site_id
        count = int(rng.poisson(spoof_total / n_spoof_rows))
        if count > 0:
            noise.append((source, site, VALID, count, False))

    private_total = total * params.private_fraction
    n_private_rows = max(1, int(rng.integers(10, 30)))
    for _ in range(n_private_rows):
        source = int(rng.integers(0x0A000000, 0x0B000000))  # 10.0.0.0/8
        site = deployment.global_sites[int(rng.integers(0, n_sites))].site_id
        count = int(rng.poisson(private_total / n_private_rows))
        if count > 0:
            noise.append((source, site, VALID, count, False))
    return QueryRows(*zip(*noise))
