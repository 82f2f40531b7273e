"""Columnar DITL capture and preprocessing vs the object-per-row oracle.

Production (``repro.ditl``) and ``tests/ditl_oracle.py`` must agree on
every query and TCP column, leave the ``ditl:{year}`` generator in the
same state, and build the same volume dicts with the same key order.
Draw order and key order are both part of the contract: the first keeps
the DITL-derived digests (fig02, fig03, fig08–fig11, tables 2 and 4)
fixed, the second the point-mass tie-break of Fig. 10 and the float sums
across letters.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.ditl import (
    CATEGORIES,
    DitlCapture,
    DitlGenParams,
    LetterCapture,
    QueryRow,
    QueryRows,
    TcpRttRows,
    generate_ditl,
    preprocess,
)
from repro.ditl import generate as generate_module
from repro.geo import make_rng
from repro.net import str_to_ip
from repro.users.recursives import RecursivePopulation
from tests import ditl_oracle as oracle

PARAMS = {
    "default": DitlGenParams(),
    # Every pair splits, so half of them take the per-IP branch.
    "always-split": DitlGenParams(site_split_prob=1.0),
    "no-ipv6": DitlGenParams(ipv6_fraction=0.0),
}
YEARS = {2018: "letters_2018", 2020: "letters_2020"}


@pytest.fixture()
def generators(monkeypatch):
    """The generator each side creates, as ``(stream name, generator)``."""
    made: dict[str, list] = {"production": [], "oracle": []}

    def recorder(side):
        def make(seed, stream):
            rng = make_rng(seed, stream)
            made[side].append((stream, rng))
            return rng
        return make

    monkeypatch.setattr(generate_module, "make_rng", recorder("production"))
    monkeypatch.setattr(oracle, "make_rng", recorder("oracle"))
    return made


def states(made: list) -> list:
    return [(stream, rng.bit_generator.state) for stream, rng in made]


def query_columns(rows) -> dict[str, list]:
    if isinstance(rows, QueryRows):
        return {
            "source_ip": rows.source_ip.tolist(),
            "site_id": rows.site_id.tolist(),
            "category": [CATEGORIES[code] for code in rows.category.tolist()],
            "queries": rows.queries.tolist(),
            "ipv6": rows.ipv6.tolist(),
        }
    return {
        "source_ip": [row.source_ip for row in rows],
        "site_id": [row.site_id for row in rows],
        "category": [row.category for row in rows],
        "queries": [row.queries for row in rows],
        "ipv6": [row.ipv6 for row in rows],
    }


def tcp_columns(rows) -> dict[str, list]:
    if isinstance(rows, TcpRttRows):
        return {
            "slash24": rows.slash24.tolist(),
            "site_id": rows.site_id.tolist(),
            "rtt_ms": rows.rtt_ms.tolist(),
            "samples": rows.samples.tolist(),
        }
    return {
        "slash24": [row.slash24 for row in rows],
        "site_id": [row.site_id for row in rows],
        "rtt_ms": [row.rtt_ms for row in rows],
        "samples": [row.samples for row in rows],
    }


def assert_same_capture(capture, expected) -> None:
    assert (capture.year, capture.duration_days) == (expected.year, expected.duration_days)
    assert list(capture.letters) == list(expected.letters)
    for name, want in expected.letters.items():
        got = capture.letters[name]
        for flag in ("letter", "tcp_ok", "anonymized"):
            assert getattr(got, flag) == getattr(want, flag)
        assert query_columns(got.rows) == query_columns(want.rows), name
        assert tcp_columns(got.tcp) == tcp_columns(want.tcp), name
        assert got.total_queries == want.total_queries
        assert got.queries_by_category() == want.queries_by_category()
        assert got.distinct_slash24s() == want.distinct_slash24s()
    assert capture.total_daily_queries == expected.total_daily_queries
    assert capture.queries_by_category() == expected.queries_by_category()


def ordered(volumes) -> dict[str, list]:
    """Every volume dict as item lists, so key order is compared too."""
    return {
        "letter": volumes.letter,
        "tcp_ok": volumes.tcp_ok,
        "valid_by_slash24": list(volumes.valid_by_slash24.items()),
        "all_by_slash24": list(volumes.all_by_slash24.items()),
        "site_valid_by_slash24": [
            (key, list(sites.items())) for key, sites in volumes.site_valid_by_slash24.items()
        ],
        "site_by_ip": [(key, list(sites.items())) for key, sites in volumes.site_by_ip.items()],
    }


def python_ints(volumes) -> bool:
    """Keys and counts are plain ints, as row-by-row sums left them."""
    flat = [volumes.valid_by_slash24, volumes.all_by_slash24]
    flat += list(volumes.site_valid_by_slash24.values()) + list(volumes.site_by_ip.values())
    nested = [volumes.site_valid_by_slash24, volumes.site_by_ip]
    return all(
        type(key) is int and type(value) is int
        for mapping in flat for key, value in mapping.items()
    ) and all(type(key) is int for mapping in nested for key in mapping)


def assert_same_filtered(filtered, expected) -> None:
    assert (filtered.year, filtered.duration_days) == (expected.year, expected.duration_days)
    assert filtered.stats == expected.stats
    assert list(filtered.per_letter) == list(expected.per_letter)
    for name, want in expected.per_letter.items():
        got = filtered.per_letter[name]
        assert ordered(got) == ordered(want), name
        assert python_ints(got), name
    assert list(filtered.daily_valid_by_slash24().items()) == list(
        expected.daily_valid_by_slash24().items()
    )
    assert list(filtered.daily_all_by_slash24().items()) == list(
        expected.daily_all_by_slash24().items()
    )


def both(scenario, year, recursives=None, **kwargs):
    """Production and oracle captures of one event."""
    arguments = (
        scenario.internet, getattr(scenario, YEARS[year]),
        recursives or scenario.recursives, scenario.zone,
    )
    return (
        generate_ditl(*arguments, year=year, **kwargs),
        oracle.generate_ditl(*arguments, year=year, **kwargs),
    )


@pytest.fixture(scope="module")
def quarter_population(scenario):
    """Every fourth resolver cluster: all branches, a quarter of the cost."""
    return RecursivePopulation(clusters=scenario.recursives.clusters[::4])


# -- generation -------------------------------------------------------------------
@pytest.mark.parametrize("year", list(YEARS))
def test_scenario_events_match_oracle(scenario, generators, year):
    """The exact events the pinned digests are computed from."""
    seed = scenario.seed + (8 if year == 2018 else 9)
    capture, expected = both(scenario, year, seed=seed)
    assert_same_capture(capture, expected)
    assert states(generators["production"]) == states(generators["oracle"])
    assert_same_filtered(preprocess(capture), oracle.preprocess(expected))


@pytest.mark.parametrize("params", list(PARAMS))
@pytest.mark.parametrize("year", list(YEARS))
@pytest.mark.parametrize("seed", range(5))
def test_generate_and_preprocess_match_oracle(
    scenario, quarter_population, generators, seed, year, params
):
    capture, expected = both(
        scenario, year, quarter_population, seed=seed, params=PARAMS[params]
    )
    assert_same_capture(capture, expected)
    assert states(generators["production"]) == states(generators["oracle"])
    assert_same_filtered(preprocess(capture), oracle.preprocess(expected))


def test_forced_splits_reach_every_branch(scenario, quarter_population):
    """The ``always-split`` setting really exercises split rows: some IPs
    send queries to two sites of one letter, others to a non-favorite."""
    capture, _ = both(scenario, 2018, quarter_population, seed=0, params=PARAMS["always-split"])
    filtered = preprocess(capture)
    multi_site = [
        ip for volumes in filtered.per_letter.values()
        for ip, sites in volumes.site_by_ip.items() if len(sites) > 1
    ]
    assert multi_site
    no_v6, _ = both(scenario, 2018, quarter_population, seed=0, params=PARAMS["no-ipv6"])
    assert not any(letter.rows.ipv6.any() for letter in no_v6.letters.values())


def test_capture_pickles_by_column(scenario):
    capture = scenario.capture_2020
    clone = pickle.loads(pickle.dumps(capture))
    for name, letter in capture.letters.items():
        assert query_columns(clone.letters[name].rows) == query_columns(letter.rows)
        assert tcp_columns(clone.letters[name].tcp) == tcp_columns(letter.tcp)


# -- preprocessing of hand-built captures ---------------------------------------------
_SOURCES = st.one_of(
    st.integers(min_value=str_to_ip("11.0.0.0"), max_value=str_to_ip("11.0.3.255")),
    st.integers(min_value=str_to_ip("10.0.0.0"), max_value=str_to_ip("10.0.3.255")),
    st.sampled_from([
        str_to_ip(ip) for ip in (
            "172.16.0.1", "192.168.7.7", "100.64.0.9", "127.0.0.1", "169.254.1.1",
            "172.15.255.255", "8.8.8.8", "255.255.255.255", "0.0.0.0",
        )
    ]),
)


@st.composite
def hand_captures(draw):
    """Oracle and production captures of the same hand-built rows.

    Rows draw their (source, site) from a small pool, so one source
    often repeats at one site and across categories; counts may be 0.
    """
    pool = draw(st.lists(
        st.tuples(_SOURCES, st.integers(min_value=0, max_value=3)), min_size=1, max_size=8
    ))
    row = st.tuples(
        st.sampled_from(pool), st.sampled_from(CATEGORIES),
        st.one_of(st.just(0), st.integers(min_value=0, max_value=5_000)), st.booleans(),
    )
    by_letter = draw(st.dictionaries(
        st.sampled_from(["A", "B", "K"]), st.lists(row, max_size=40), min_size=1, max_size=3
    ))
    letters, expected = {}, {}
    for name, rows in by_letter.items():
        fields = [(ip, site, category, count, v6) for (ip, site), category, count, v6 in rows]
        letters[name] = LetterCapture(
            letter=name, rows=QueryRows.from_rows(QueryRow(*f) for f in fields)
        )
        expected[name] = oracle.LetterCapture(
            letter=name, rows=[oracle.QueryRow(*f) for f in fields]
        )
    return (
        DitlCapture(year=2018, duration_days=2.0, letters=letters),
        oracle.DitlCapture(year=2018, duration_days=2.0, letters=expected),
    )


@given(hand_captures())
def test_preprocess_matches_oracle_on_hand_built_rows(captures):
    capture, expected = captures
    assert_same_capture(capture, expected)
    assert_same_filtered(preprocess(capture), oracle.preprocess(expected))


def test_preprocess_of_an_empty_letter():
    capture = DitlCapture(year=2020, duration_days=2.0, letters={"X": LetterCapture("X")})
    expected = oracle.DitlCapture(
        year=2020, duration_days=2.0, letters={"X": oracle.LetterCapture("X")}
    )
    assert_same_filtered(preprocess(capture), oracle.preprocess(expected))
