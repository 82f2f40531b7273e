"""Tests of the benchmark harness itself: ``python -m pytest bench``.

The smoke test runs every workload end to end with short windows, so it
takes a couple of minutes; the others need no running program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import compare
import loadgen
import serving
from harness import BENCH_DIR, BENCHMARK_FILE, load_spec, percentile, summarize, tail_percentile

SCENARIO_PAYLOAD = {
    "regions": 508,
    "deployments": {
        "2018-H": {"kind": "letter", "sites": 1, "global_sites": 1, "whatif": True},
        "2018-K": {"kind": "letter", "sites": 53, "global_sites": 52, "whatif": True},
        "2018-M": {"kind": "letter", "sites": 6, "global_sites": 5, "whatif": True},
        "R110": {"kind": "cdn-ring", "sites": 110, "global_sites": 110, "whatif": False},
    },
}


def _catalogue() -> loadgen.Catalogue:
    pairs = [[3320 + i, i % 508] for i in range(100)]
    return loadgen.Catalogue.from_scenario_payload(SCENARIO_PAYLOAD, pairs)


# -- statistics -----------------------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (9, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10_000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_summarize_reports_the_supported_tail():
    values = list(range(1, 1001))
    summary = summarize(values)
    assert summary["n"] == 1000
    assert summary["tail_q"] == 99.0
    assert summary["tail"] == percentile(values, 99)
    assert sum(v > summary["tail"] for v in values) >= 10
    assert summarize([])["n"] == 0


def test_percentile_interpolates_between_ranks():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([1, 2, 3, 4], 100) == 4
    assert percentile([7], 90) == 7


# -- request schedules ------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(serving.PROFILES))
def test_same_seed_same_schedule_and_bytes(workload):
    profile = serving.PROFILES[workload]
    one = serving.plan_traffic(7, _catalogue(), profile, 6.0)
    two = serving.plan_traffic(7, _catalogue(), profile, 6.0)
    other = serving.plan_traffic(8, _catalogue(), profile, 6.0)
    assert np.array_equal(one.due, two.due)
    assert [r.wire for r in one.open] == [r.wire for r in two.open]
    assert [r.wire for r in one.closed] == [r.wire for r in two.closed]
    assert one.keep == two.keep
    assert not np.array_equal(one.due, other.due)


def test_poisson_arrivals_match_the_rate():
    due = loadgen.poisson_arrivals(np.random.default_rng(1), 400.0, 20.0)
    assert np.all(np.diff(due) > 0) and due[-1] < 20.0
    assert abs(len(due) / 20.0 - 400.0) < 20.0


def test_mixed_plan_draws_only_valid_requests():
    catalogue = _catalogue()
    assert [name for name, _ in catalogue.whatif_letters] == ["2018-K", "2018-M"]
    plan = serving.plan_traffic(3, catalogue, serving.PROFILES["serve-mixed"], 30.0)
    kinds = {request.kind for request in plan.open}
    assert kinds == {"resolve", "catchment", "inflation", "whatif"}
    sites = dict(catalogue.whatif_letters)
    for request in plan.open + plan.closed:
        head, _, body = request.wire.partition(b"\r\n\r\n")
        assert int(head.split(b"Content-Length: ")[1]) == len(body)
        if request.kind != "whatif":
            continue
        change = json.loads(body)
        assert change["deployment"] in sites
        for site in change.get("remove_sites", []):
            assert 0 <= site < sites[change["deployment"]]
        for region in change.get("add_regions", []):
            assert 0 <= region < SCENARIO_PAYLOAD["regions"]
    resolves = [i for i, r in enumerate(plan.open) if r.kind == "resolve"]
    assert len(set(resolves) & plan.keep) >= min(serving.CHECK_SAMPLES, len(resolves))


# -- compare.py -----------------------------------------------------------------


def _document(values: dict, *, failed: int = 0, digests=None) -> dict:
    runs = []
    for seed, scale in enumerate(values["scales"]):
        runs.append({
            "workload": "serve-resolve",
            "seed": seed,
            "correct": True,
            "attempted": 100,
            "failed": failed,
            "digests": digests,
            "metrics": {
                metric["name"]: {"value": values["base"] * scale, "unit": metric["unit"]}
                for metric in load_spec()["end_to_end"]
            },
        })
    return {"runs": runs}


STEADY = [1.0, 1.001, 0.999, 1.0005, 0.9995]


def test_compare_accepts_agreeing_sets():
    a = _document({"base": 10.0, "scales": STEADY}, digests={"fig01": "x"})
    b = _document({"base": 10.0, "scales": STEADY[::-1]}, digests={"fig01": "x"})
    _, problems = compare.compare(a, b, load_spec())
    assert problems == []


def test_compare_judges_setup_by_median_only():
    a = _document({"base": 10.0, "scales": STEADY}, digests={"fig01": "x"})
    b = _document({"base": 10.0, "scales": STEADY}, digests={"fig01": "x"})
    for run, scale in zip(b["runs"], [0.7, 1.0, 1.3, 0.8, 1.2]):
        run["metrics"]["setup_s"]["value"] = 10.0 * scale
    _, problems = compare.compare(a, b, load_spec())
    assert problems == []


@pytest.mark.parametrize("b_values, b_kwargs, needle", [
    ({"base": 13.0, "scales": STEADY}, {}, "differs"),
    ({"base": 10.0, "scales": [0.5, 1.0, 1.5, 0.7, 1.3]}, {}, "unresolved"),
    ({"base": 10.0, "scales": STEADY}, {"failed": 1}, "failed fraction"),
    ({"base": 10.0, "scales": STEADY}, {"digests": {"fig01": "y"}}, "digest"),
])
def test_compare_rejects_disagreeing_sets(b_values, b_kwargs, needle, tmp_path):
    a = _document({"base": 10.0, "scales": STEADY}, digests={"fig01": "x"})
    b = _document(b_values, **{"digests": {"fig01": "x"}, **b_kwargs})
    _, problems = compare.compare(a, b, load_spec())
    assert any(needle in problem for problem in problems)
    paths = []
    for name, document in (("a.json", a), ("b.json", b)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(document))
    assert compare.main([str(p) for p in paths]) == 1


# -- the command ----------------------------------------------------------------


def test_fails_without_the_program(tmp_path):
    """A directory holding only the benchmark must exit non-zero, printing no result."""
    shutil.copy(BENCHMARK_FILE, tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_emits_every_metric(trace, tmp_path):
    """Every workload, short windows: each table metric, with its unit, in every run."""
    out = tmp_path / "result.json"
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--seed", "5", "--seconds", "2",
         "--trace", trace, "--out", str(out)],
        capture_output=True, text=True, timeout=900,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    spec = load_spec()
    table = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    document = json.loads(out.read_text())
    assert document["cpu_count"] >= 1 and document["python"]
    assert [run["workload"] for run in document["runs"]] == [
        w["name"] for w in spec["workloads"]
    ]
    for run in document["runs"]:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        assert {name: m["unit"] for name, m in run["metrics"].items()} == {
            row["name"]: row["unit"] for row in table
        }
        if trace == "0":
            assert all(m["value"] > 0 for m in run["metrics"].values())
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
