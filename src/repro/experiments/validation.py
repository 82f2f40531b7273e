"""Reproduction self-check: the paper's qualitative claims as assertions.

``anycast-repro validate`` evaluates every shape target from DESIGN.md §4
against a scenario and reports PASS/FAIL — the same checks
``tests/test_experiments.py`` asserts, available without pytest.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import run_experiment
from .scenario import Scenario

__all__ = ["ShapeCheck", "SHAPE_CHECKS", "validate_scenario", "ValidationReport"]


@dataclass(frozen=True, slots=True)
class ShapeCheck:
    """One qualitative claim: which experiments it needs and how to test."""

    name: str
    claim: str
    experiments: tuple[str, ...]
    predicate: object  # Callable[[dict[str, dict]], bool]

    def evaluate(self, data: dict[str, dict]) -> bool:
        return bool(self.predicate(data))


SHAPE_CHECKS: tuple[ShapeCheck, ...] = (
    ShapeCheck(
        "root-inflation-ubiquitous",
        ">95% of users see some geographic inflation to the roots (§3.2)",
        ("fig02a",),
        lambda d: d["fig02a"]["all/frac_any_inflation"] > 0.85,
    ),
    ShapeCheck(
        "letters-heavy-latency-tails",
        "some letters inflate >100 ms for 20-40% of users (§3.2)",
        ("fig02b",),
        lambda d: max(
            d["fig02b"][f"{name}/frac_over_100ms"] for name in d["fig02b"]["letters"]
        ) > 0.10,
    ),
    ShapeCheck(
        "all-roots-milder-than-letters",
        "letter preference keeps system-wide inflation below the worst letters (§3.2)",
        ("fig02b",),
        lambda d: d["fig02b"]["all/frac_over_100ms"]
        < max(d["fig02b"][f"{n}/frac_over_100ms"] for n in d["fig02b"]["letters"]),
    ),
    ShapeCheck(
        "one-query-per-user-day",
        "the median user waits for ~1 root query per day (§4.3)",
        ("fig03",),
        lambda d: 0.05 < d["fig03"]["cdn/median"] < 20.0,
    ),
    ShapeCheck(
        "ideal-orders-of-magnitude-below",
        "once-per-TTL querying would be orders of magnitude rarer (§4.3)",
        ("fig03",),
        lambda d: d["fig03"]["ideal/median"] < d["fig03"]["cdn/median"] / 50.0,
    ),
    ShapeCheck(
        "ring-growth-lowers-latency",
        "more front-ends, lower latency; R28→R110 saves ~100 ms/page (§5.2)",
        ("fig04a",),
        lambda d: d["fig04a"]["R28/median_rtt"] >= d["fig04a"]["R110/median_rtt"]
        and d["fig04a"]["page_gap_smallest_largest"] > 0,
    ),
    ShapeCheck(
        "ring-growth-hurts-almost-nobody",
        "growing a ring regresses <1% of locations by >10 ms (§5.2)",
        ("fig04b",),
        lambda d: all(
            v < 0.05 for k, v in d["fig04b"].items() if k.endswith("frac_regress_10ms")
        ),
    ),
    ShapeCheck(
        "cdn-mostly-uninflated",
        "most CDN users see zero geographic inflation; root users do not (§6)",
        ("fig05a",),
        lambda d: d["fig05a"]["R110/zero_mass"] > 0.5
        and d["fig05a"]["roots/zero_mass"] < 0.2,
    ),
    ShapeCheck(
        "cdn-latency-inflation-small",
        "~99% of CDN users under 100 ms of latency inflation (§6)",
        ("fig05b",),
        lambda d: d["fig05b"]["R110/frac_under_100ms"] > 0.85,
    ),
    ShapeCheck(
        "cdn-paths-direct",
        "the CDN is reached in 2 ASes far more often than any letter (§7.1)",
        ("fig06a",),
        lambda d: d["fig06a"]["CDN/share_2as"] > 0.3
        and d["fig06a"]["CDN/share_2as"] > d["fig06a"]["all_roots/share_2as"],
    ),
    ShapeCheck(
        "size-buys-latency-not-efficiency",
        "larger deployments: lower latency, lower efficiency (§7.2)",
        ("fig07a",),
        lambda d: d["fig07a"]["R28/latency"] >= d["fig07a"]["R110/latency"] - 1.0
        and d["fig07a"]["R28/efficiency"] >= d["fig07a"]["R110/efficiency"] - 0.05,
    ),
    ShapeCheck(
        "b-root-efficiency-trap",
        "B root: high efficiency, terrible latency (§7.2)",
        ("fig07a",),
        lambda d: d["fig07a"].get("B/latency", 1e9) > 2.0 * d["fig07a"]["R110/latency"],
    ),
    ShapeCheck(
        "all-roots-coverage",
        "the root system covers users like the largest ring (§7.2)",
        ("fig07b",),
        lambda d: d["fig07b"]["All Roots/at_1000km"] >= d["fig07b"]["R110/at_1000km"] - 0.1,
    ),
    ShapeCheck(
        "junk-dominates-volume",
        "including junk multiplies the per-user median ~20× (App. B.1)",
        ("fig03", "fig08"),
        lambda d: d["fig08"]["cdn/median"] > 4.0 * d["fig03"]["cdn/median"],
    ),
    ShapeCheck(
        "slash24-join-necessary",
        "without the /24 join the amortisation collapses (App. B.2)",
        ("fig03", "fig09"),
        lambda d: d["fig09"]["cdn/median"] < d["fig03"]["cdn/median"],
    ),
    ShapeCheck(
        "favorite-site-affinity",
        ">80% of /24s keep all queries on one site (App. B.2)",
        ("fig10",),
        lambda d: min(
            v for k, v in d["fig10"].items() if k.endswith("frac_single_site")
        ) > 0.5,
    ),
    ShapeCheck(
        "conclusions-stable-2020",
        "the 2020 DITL does not change the conclusions (App. B.3)",
        ("fig03", "fig11a"),
        lambda d: 0.1 < d["fig11a"]["cdn/median"] / d["fig03"]["cdn/median"] < 10.0,
    ),
    ShapeCheck(
        "root-latency-invisible",
        "<1%-ish of queries touch a root; almost none wait >100 ms (§4.3)",
        ("fig13",),
        lambda d: d["fig13"]["frac_touching_root"] < 0.05
        and d["fig13"]["frac_over_100ms"] < 0.005,
    ),
    ShapeCheck(
        "redundant-bug-dominates",
        "most root queries at the instrumented resolver are redundant (App. E)",
        ("table5",),
        lambda d: d["table5"]["fraction_redundant"] > 0.4,
    ),
    ShapeCheck(
        "ten-rtts-per-page",
        "10 RTTs is a sound lower bound per page load (App. C)",
        ("appc",),
        lambda d: 8 <= d["appc"]["lower_bound"] <= 12
        and d["appc"]["frac_within_20"] > 0.6,
    ),
)


@dataclass(slots=True)
class ValidationReport:
    """Outcome of a validate run."""

    results: list[tuple[ShapeCheck, bool]]

    @property
    def passed(self) -> int:
        return sum(1 for _, ok in self.results if ok)

    @property
    def failed(self) -> int:
        return len(self.results) - self.passed

    @property
    def all_passed(self) -> bool:
        return self.failed == 0

    def to_text(self) -> str:
        lines = []
        for check, ok in self.results:
            status = "PASS" if ok else "FAIL"
            lines.append(f"[{status}] {check.name}: {check.claim}")
        lines.append(f"\n{self.passed}/{len(self.results)} shape targets hold")
        return "\n".join(lines)


def validate_scenario(scenario: Scenario) -> ValidationReport:
    """Run every shape check against ``scenario``."""
    needed = sorted({e for check in SHAPE_CHECKS for e in check.experiments})
    data = {e: run_experiment(e, scenario).data for e in needed}
    results = []
    for check in SHAPE_CHECKS:
        try:
            ok = check.evaluate(data)
        except (KeyError, ValueError, ZeroDivisionError):
            ok = False
        results.append((check, ok))
    return ValidationReport(results=results)
