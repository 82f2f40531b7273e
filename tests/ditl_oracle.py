"""Object-per-row DITL pipeline: the equivalence oracle for ``repro.ditl``.

This is capture generation and preprocessing as they ran before
``repro.ditl`` went columnar. The code is kept verbatim; only imports
changed:

* :class:`QueryRow` (validating in ``__post_init__``), :class:`TcpRttRow`,
  and :class:`LetterCapture`/:class:`DitlCapture` holding lists of them;
* :func:`generate_ditl` with its scalar draw per (category, IP), and
  :func:`_add_noise_sources`;
* :func:`preprocess`, one dict update per row.

``tests/test_ditl_columnar.py`` runs it side by side with the production
path and requires every column, every generator state and every volume
dict (key order included) to match. Unchanged pieces (generation knobs,
letter weights, the filtered-volume records) are imported from ``repro``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.anycast import IndependentDeployment
from repro.dns.records import RootZone
from repro.ditl import CATEGORIES, DitlGenParams, FilteredDitl, LetterVolumes
from repro.ditl.generate import _letter_weights, _tcp_broken
from repro.geo import make_rng, optimal_rtt_ms
from repro.net import is_private
from repro.topology import GeneratedInternet
from repro.users.recursives import RecursivePopulation


# -- capture model -------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class QueryRow:
    """Daily query count from one source IP to one site of one letter."""

    source_ip: int
    site_id: int
    category: str
    queries: int
    ipv6: bool = False

    def __post_init__(self) -> None:
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r}")
        if self.queries < 0:
            raise ValueError("negative query count")

    @property
    def slash24(self) -> int:
        return self.source_ip >> 8


@dataclass(frozen=True, slots=True)
class TcpRttRow:
    """Median TCP-handshake RTT samples for one (source /24, site)."""

    slash24: int
    site_id: int
    rtt_ms: float
    samples: int


@dataclass(slots=True)
class LetterCapture:
    """One letter's contribution to a DITL event."""

    letter: str
    rows: list[QueryRow] = field(default_factory=list)
    tcp: list[TcpRttRow] = field(default_factory=list)
    #: Whether this letter's pcaps carry usable TCP handshakes (D and L
    #: roots were malformed in 2018).
    tcp_ok: bool = True
    anonymized: bool = False

    @property
    def total_queries(self) -> int:
        return sum(row.queries for row in self.rows)

    def queries_by_category(self) -> dict[str, int]:
        totals = dict.fromkeys(CATEGORIES, 0)
        for row in self.rows:
            totals[row.category] += row.queries
        return totals

    def distinct_slash24s(self) -> set[int]:
        return {row.slash24 for row in self.rows}


@dataclass(slots=True)
class DitlCapture:
    """A full DITL event: one capture per participating letter."""

    year: int
    duration_days: float
    letters: dict[str, LetterCapture] = field(default_factory=dict)

    def letter(self, name: str) -> LetterCapture:
        return self.letters[name]

    @property
    def letter_names(self) -> list[str]:
        return sorted(self.letters)

    @property
    def total_daily_queries(self) -> float:
        return sum(c.total_queries for c in self.letters.values())

    def distinct_slash24s(self) -> set[int]:
        blocks: set[int] = set()
        for capture in self.letters.values():
            blocks |= capture.distinct_slash24s()
        return blocks

    def queries_by_category(self) -> dict[str, int]:
        totals = dict.fromkeys(CATEGORIES, 0)
        for capture in self.letters.values():
            for category, count in capture.queries_by_category().items():
                totals[category] += count
        return totals


# -- generation ---------------------------------------------------------------
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
    """Synthesise one DITL event over the deployed letters."""
    params = params or DitlGenParams()
    rng = make_rng(seed, f"ditl:{year}")
    world = internet.world
    captures = {
        name: LetterCapture(letter=name, tcp_ok=not _tcp_broken(deployment))
        for name, deployment in letters.items()
    }
    ideal_daily = zone.ideal_daily_root_queries()

    # Catchments first, in one columnar pass per letter; the per-cluster
    # loop below then only draws random volumes (same RNG stream as the
    # scalar path, since resolution itself consumes no randomness).
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

        backends = list(cluster.backend_ips)
        ip_shares = rng.dirichlet(np.full(len(backends), 1.2))

        for name, weight in weights.items():
            deployment = letters[name]
            capture = captures[name]
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

            volumes = {
                "valid": legit_daily * weight,
                "invalid": junk_daily * weight,
                "ptr": ptr_daily * weight,
            }
            for category, expected in volumes.items():
                if expected <= 0:
                    continue
                for ip, share in zip(backends, ip_shares):
                    count = int(rng.poisson(expected * share))
                    if count <= 0:
                        continue
                    if split and per_ip_mode:
                        # Whole IPs deviate to the secondary site.
                        site = secondary if rng.uniform() < secondary_share else favorite
                        capture.rows.append(QueryRow(ip, site, category, count))
                    elif split:
                        to_secondary = int(round(count * secondary_share))
                        if to_secondary:
                            capture.rows.append(
                                QueryRow(ip, secondary, category, to_secondary)
                            )
                        if count - to_secondary:
                            capture.rows.append(
                                QueryRow(ip, favorite, category, count - to_secondary)
                            )
                    else:
                        capture.rows.append(QueryRow(ip, favorite, category, count))

            # IPv6 share, reported separately and dropped by preprocessing.
            total = sum(volumes.values())
            v6 = int(rng.poisson(total * params.ipv6_fraction / (1.0 - params.ipv6_fraction)))
            if v6 > 0:
                capture.rows.append(QueryRow(backends[0], favorite, "valid", v6, ipv6=True))

            # TCP-handshake RTT samples (only letters with sane pcaps).
            if capture.tcp_ok:
                base_valid = volumes["valid"]
                favorite_samples = int(rng.poisson(
                    base_valid * (1.0 - secondary_share) * params.tcp_fraction
                ))
                if favorite_samples > 0:
                    capture.tcp.append(
                        TcpRttRow(
                            slash24=cluster.slash24,
                            site_id=favorite,
                            rtt_ms=rtts[name] * float(rng.lognormal(mean=0.0, sigma=0.05)),
                            samples=favorite_samples,
                        )
                    )
                if split:
                    secondary_samples = int(rng.poisson(
                        base_valid * secondary_share * params.tcp_fraction
                    ))
                    if secondary_samples > 0:
                        here = world.region(cluster.region_id).location
                        there = deployment.site_location(secondary)
                        rtt = (
                            optimal_rtt_ms(here.distance_km(there)) * params.secondary_stretch
                            + params.secondary_extra_ms
                        ) * float(rng.lognormal(0.0, 0.05))
                        capture.tcp.append(
                            TcpRttRow(
                                slash24=cluster.slash24,
                                site_id=secondary,
                                rtt_ms=rtt,
                                samples=secondary_samples,
                            )
                        )

    _add_noise_sources(internet, letters, captures, params, rng)
    return DitlCapture(year=year, duration_days=duration_days, letters=captures)


def _add_noise_sources(
    internet: GeneratedInternet,
    letters: dict[str, IndependentDeployment],
    captures: dict[str, LetterCapture],
    params: DitlGenParams,
    rng: np.random.Generator,
) -> None:
    """Spoofed-source and private-source traffic (§3.1's caveats)."""
    for name, capture in captures.items():
        deployment = letters[name]
        total = capture.total_queries
        if total == 0:
            continue
        n_sites = deployment.n_global_sites

        # Spoofed sources look like valid traffic, so size them against
        # the valid volume — they are a small caveat (§3.1), not a flood.
        valid_total = sum(
            row.queries for row in capture.rows
            if row.category == "valid" and not row.ipv6
        )
        spoof_total = valid_total * params.spoof_fraction
        n_spoof_rows = max(1, int(rng.integers(20, 60)))
        for _ in range(n_spoof_rows):
            source = int(rng.integers(0x0B000000, 0xDF000000))  # arbitrary space
            site = deployment.global_sites[int(rng.integers(0, n_sites))].site_id
            count = int(rng.poisson(spoof_total / n_spoof_rows))
            if count > 0:
                capture.rows.append(QueryRow(source, site, "valid", count))

        private_total = total * params.private_fraction
        n_private_rows = max(1, int(rng.integers(10, 30)))
        for _ in range(n_private_rows):
            source = int(rng.integers(0x0A000000, 0x0B000000))  # 10.0.0.0/8
            site = deployment.global_sites[int(rng.integers(0, n_sites))].site_id
            count = int(rng.poisson(private_total / n_private_rows))
            if count > 0:
                capture.rows.append(QueryRow(source, site, "valid", count))


# -- preprocessing ------------------------------------------------------------
def preprocess(capture: DitlCapture) -> FilteredDitl:
    """Run the §2.1 pipeline over a raw capture."""
    result = FilteredDitl(year=capture.year, duration_days=capture.duration_days)
    stats = result.stats
    for name, letter_capture in capture.letters.items():
        volumes = LetterVolumes(letter=name, tcp_ok=letter_capture.tcp_ok)
        result.per_letter[name] = volumes
        for row in letter_capture.rows:
            stats.total_queries += row.queries
            if row.ipv6:
                stats.dropped_ipv6 += row.queries
                continue
            if is_private(row.source_ip):
                stats.dropped_private += row.queries
                continue
            slash24 = row.slash24
            volumes.all_by_slash24[slash24] = (
                volumes.all_by_slash24.get(slash24, 0) + row.queries
            )
            if row.category == "invalid":
                stats.invalid_queries += row.queries
                continue
            if row.category == "ptr":
                stats.ptr_queries += row.queries
                continue
            stats.valid_queries += row.queries
            volumes.valid_by_slash24[slash24] = (
                volumes.valid_by_slash24.get(slash24, 0) + row.queries
            )
            site_map = volumes.site_valid_by_slash24.setdefault(slash24, {})
            site_map[row.site_id] = site_map.get(row.site_id, 0) + row.queries
            ip_map = volumes.site_by_ip.setdefault(row.source_ip, {})
            ip_map[row.site_id] = ip_map.get(row.site_id, 0) + row.queries
    return result
