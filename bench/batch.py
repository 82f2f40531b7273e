"""Batch workloads: ``repro all`` on an empty cache and on a filled one.

``all-cold`` is what every developer pays after a source edit (the code
version changes, so every cached stage and result misses): nearly all
of it is stage builds in ``repro.dns``, ``repro.ditl`` and
``repro.measurement``.  ``all-warm`` re-runs the same command against
the cache a cold run filled, so it exercises only package import and
the engine's read path (result loads with sha256 verification, journal
writes) and bypasses every stage build.

Both run the ``small`` world at seed 0: one cold ``all`` at ``medium``
takes 70–90 s on a 2-CPU host, longer than the whole time one
benchmark run may take.  Seed 0 is the world whose result digests are
pinned in ``tests/goldens``; other worlds fail some of the paper's
shape checks (seed 4 fails ``ring-growth-hurts-almost-nobody``), which
would make the correctness gate depend on the seed.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from harness import (
    BenchError,
    Outcome,
    ROOT,
    fresh_dir,
    log_tail,
    remove,
    repro_cmd,
    run_child,
    summarize,
)

SCALE = "small"
WORLD_SEED = 0
SETUP_REPEATS = 5
#: Cached result digests of this world, pinned by the program's own tests.
GOLDEN_FILE = ROOT / "tests" / "goldens" / f"{SCALE}_seed{WORLD_SEED}.json"

#: ``Scenario`` stages grouped by the module that builds them.
STAGE_LAYERS = {
    "substrate_s": ("internet", "user_base", "recursives", "cdn_counts",
                    "apnic_counts", "mapper"),
    "dns.zone_s": ("zone", "universe", "root_latency_model"),
    "dns.isi_s": ("isi_result",),
    "dns.author_s": ("author_result",),
    "anycast.build_s": ("letters_2018", "letters_2020", "cdn"),
    "ditl.generate_s": ("capture_2018", "capture_2020"),
    "ditl.preprocess_s": ("filtered_2018", "filtered_2020"),
    "ditl.join_s": ("_join_2018", "_join_2018_ip", "_join_2020", "_volumes_2018"),
    "measurement_s": ("geolocator", "atlas", "server_logs", "client_measurements"),
}
#: Program spans nested inside stages and experiments, by layer.
SPAN_LAYERS = {
    "bgp.propagate_s": ("bgp.propagate", "bgp.repropagate"),
    "kernel.build_s": ("kernel.build", "kernel.delta", "kernel.distance_matrix"),
    "kernel.resolve_s": ("kernel.resolve", "deployment.resolve_many",
                         "cdn.resolve_many", "cdn.ingress_many"),
    "engine.run_s": ("engine.run",),
}
LAYERS = (*STAGE_LAYERS, *SPAN_LAYERS, "experiments.analysis_s")


def _all_cmd(cache: Path, *extra: str) -> list[str]:
    return repro_cmd("all", "--scale", SCALE, "--seed", str(WORLD_SEED),
                     "--cache-dir", str(cache), *extra)


def _setup_times(work: Path, problems: list) -> list[float]:
    """Interpreter start plus package import: ``repro list``, five times."""
    log = work / "setup.log"
    run_child(repro_cmd("list"), log=log)  # untimed: byte-compiles a fresh checkout
    runs = [run_child(repro_cmd("list"), log=log) for _ in range(SETUP_REPEATS)]
    if any(run.exit_code != 0 for run in runs):
        problems.append(f"repro list failed: {log_tail(log)}")
    return [run.wall_s for run in runs]


def _end_to_end(setup: list[float], runs: list, n_experiments: int) -> dict:
    p50 = statistics.median(run.wall_s * 1000.0 for run in runs)
    return {
        "setup_s": statistics.median(setup),
        "latency_p50_ms": p50,
        "throughput_per_s": n_experiments * 1000.0 / p50,
        "peak_rss_mb": statistics.median(run.peak_rss_mb for run in runs),
    }


def _latency(runs: list) -> dict:
    return summarize(run.wall_s * 1000.0 for run in runs)


def _check_cache(cache: Path, problems: list, *, validate: bool) -> dict:
    """Replay every result from ``cache`` in-process; returns the digest map.

    Every experiment must be a cache hit with status ``ok``; with
    ``validate`` the paper's shape checks must all hold as well.
    """
    from repro.experiments import (
        ArtifactCache,
        Scenario,
        list_experiments,
        result_digest,
        run_experiments,
        validate_scenario,
    )

    scenario = Scenario(scale=SCALE, seed=WORLD_SEED, cache=ArtifactCache(root=cache))
    results = run_experiments(list_experiments(), scenario)
    bad = {eid: status for eid, status in results.statuses.items() if status != "ok"}
    if bad:
        problems.append(f"experiments not ok: {bad}")
    misses = [r.id for r in results if r is not None and not r.report.cache_hit]
    if misses:
        problems.append(f"results missing from a filled cache: {misses}")
    if validate:
        report = validate_scenario(scenario)
        if not report.all_passed:
            failing = [check.name for check, ok in report.results if not ok]
            problems.append(f"validate_scenario failed: {failing}")
    return {r.id: result_digest(r) for r in results if r is not None}


def _check_digests(maps: list[dict], problems: list) -> dict:
    """All runs must agree with each other and with the pinned goldens."""
    first = maps[0]
    if any(other != first for other in maps[1:]):
        problems.append("result digests differ between runs of the same world")
    if GOLDEN_FILE.is_file():
        with open(GOLDEN_FILE, encoding="utf-8") as handle:
            golden = json.load(handle)["digests"]
        drift = sorted(eid for eid in golden if first.get(eid) != golden[eid])
        if drift:
            problems.append(f"digests differ from {GOLDEN_FILE.name}: {drift}")
    return first


def _check_warm_path(cache: Path, work: Path, problems: list) -> None:
    """One more warm run, with ``--metrics``: reads only, every result a hit."""
    dump = work / "warm-metrics.json"
    run = run_child(_all_cmd(cache, "--metrics", str(dump)), log=work / "all.log")
    if run.exit_code != 0:
        problems.append(f"warm check run exited {run.exit_code}: {log_tail(work / 'all.log')}")
        return
    with open(dump, encoding="utf-8") as handle:
        counters = json.load(handle)["counters"]
    total = counters.get("engine.experiments.total", 0)
    hits = counters.get("engine.experiments.cache_hits.total", 0)
    writes = counters.get("cache.write.total", 0)
    if total == 0 or hits != total or writes:
        problems.append(f"warm run was not read-only: {hits}/{total} hits, {writes} writes")


def all_cold(seconds: float) -> Outcome:
    work = fresh_dir("all-cold-")
    caches: list[Path] = []
    try:
        problems: list = []
        setup = _setup_times(work, problems)
        runs = []
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            cache = fresh_dir("cold-cache-")
            caches.append(cache)
            runs.append(run_child(_all_cmd(cache), log=work / "all.log"))
        failed = sum(run.exit_code != 0 for run in runs)
        maps = [
            _check_cache(cache, problems, validate=(cache is caches[-1]))
            for cache in caches
        ]
        digests = _check_digests(maps, problems)
        values = _end_to_end(setup, runs, len(digests))
        return Outcome(
            values=values, attempted=len(runs), failed=failed, problems=problems,
            diagnostics={"latency_ms": _latency(runs), "setup_runs_s": setup},
            digests=digests,
        )
    finally:
        for cache in caches:
            remove(cache)
        remove(work)


def all_warm(seconds: float) -> Outcome:
    work = fresh_dir("all-warm-")
    cache = fresh_dir("warm-cache-")
    try:
        problems: list = []
        setup = _setup_times(work, problems)
        fill = run_child(_all_cmd(cache), log=work / "all.log")  # untimed
        if fill.exit_code != 0:
            raise BenchError(f"cold fill exited {fill.exit_code}: {log_tail(work / 'all.log')}")
        runs = []
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            runs.append(run_child(_all_cmd(cache), log=work / "all.log"))
        failed = sum(run.exit_code != 0 for run in runs)
        _check_warm_path(cache, work, problems)
        digests = _check_digests([_check_cache(cache, problems, validate=True)], problems)
        values = _end_to_end(setup, runs, len(digests))
        return Outcome(
            values=values, attempted=len(runs), failed=failed, problems=problems,
            diagnostics={"latency_ms": _latency(runs), "fill_s": fill.wall_s,
                         "setup_runs_s": setup},
            digests=digests,
        )
    finally:
        remove(cache)
        remove(work)


# -- the traced breakdown -----------------------------------------------------

#: Warm runs last half a second; tracing overhead compares medians of this many.
WARM_TRACE_REPEATS = 5


def self_times(records) -> dict:
    """Exclusive seconds per span name, summed over a merged trace."""
    totals: dict = {}
    for record in records:
        name = record["name"]
        totals[name] = totals.get(name, 0.0) + record["self_s"]
    return totals


def layer_values(by_name: dict) -> dict:
    """Per-stage, per-experiment and per-layer self times from a trace."""
    values = {}
    for layer, stages in STAGE_LAYERS.items():
        values[layer] = 0.0
        for stage in stages:
            seconds = by_name.get(f"stage.{stage}", 0.0)
            values[f"stage.{stage}_s"] = seconds
            values[layer] += seconds
    for layer, names in SPAN_LAYERS.items():
        values[layer] = sum(by_name.get(name, 0.0) for name in names)
    analysis = 0.0
    for name, seconds in by_name.items():
        if name.startswith("experiment."):
            values[f"{name}_s"] = seconds
            analysis += seconds
    values["experiments.analysis_s"] = analysis
    return values


def _work_counts(cache: Path) -> dict:
    """DNS queries the ISI resolver simulated and DITL rows captured."""
    from repro.experiments import ArtifactCache, Scenario

    scenario = Scenario(scale=SCALE, seed=WORLD_SEED, cache=ArtifactCache(root=cache))
    return {
        "dns.isi_queries": len(scenario.isi_result.trace),
        "ditl.capture_rows": sum(
            len(letter.rows)
            for capture in (scenario.capture_2018, scenario.capture_2020)
            for letter in capture.letters.values()
        ),
    }


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds else 0.0


def traced(workload: str) -> Outcome:
    """Per-layer self times of a traced ``repro all``, plus tracing overhead.

    The traced run is the same command with ``--trace`` and ``--metrics``:
    stage spans nest inside the experiments that first need them, and
    exclusive times still sum to the run's wall time.  What the trace's
    root span does not cover is interpreter start and package import.
    """
    from repro.obs.trace import load_trace

    work = fresh_dir(f"{workload}-traced-")
    cold = workload == "all-cold"
    # Cold: each run gets an empty cache.  Warm: every run reads one filled cache.
    caches = [fresh_dir("cache-") for _ in range(2 if cold else 1)]
    plain_cache, traced_cache = caches[0], caches[-1]
    try:
        problems: list = []
        log = work / "all.log"
        repeats = 1 if cold else WARM_TRACE_REPEATS
        if not cold:
            fill = run_child(_all_cmd(plain_cache), log=log)
            if fill.exit_code != 0:
                raise BenchError(f"cold fill exited {fill.exit_code}: {log_tail(log)}")
        plain = [run_child(_all_cmd(plain_cache), log=log) for _ in range(repeats)]
        trace_path, dump = work / "all.trace.jsonl", work / "all.metrics.json"
        runs = [
            run_child(_all_cmd(traced_cache, "--trace", str(trace_path),
                               "--metrics", str(dump)), log=log)
            for _ in range(repeats)
        ]
        failed = sum(run.exit_code != 0 for run in (*plain, *runs))
        if failed:
            raise BenchError(f"{failed} repro all run(s) failed: {log_tail(log)}")
        records = load_trace(trace_path)
        root = next(record for record in records if record["name"] == "cli.all")
        wall = runs[-1].wall_s
        values = layer_values(self_times(records))
        values["startup_s"] = wall - root["dur_s"]
        with open(dump, encoding="utf-8") as handle:
            snapshot = json.load(handle)
        counters = snapshot["counters"]
        experiments = counters.get("engine.experiments.total", 0)
        counts = _work_counts(traced_cache) if cold else {}
        values.update(counts)
        values.update({
            "trace.coverage_ratio": sum(values[k] for k in (*LAYERS, "startup_s")) / wall,
            "trace.overhead_ratio": (
                statistics.median(run.wall_s for run in runs)
                / statistics.median(run.wall_s for run in plain)
            ),
            "dns.isi_queries_per_s": _rate(counts.get("dns.isi_queries", 0), values["dns.isi_s"]),
            "ditl.capture_rows_per_s": _rate(counts.get("ditl.capture_rows", 0),
                                             values["ditl.generate_s"]),
            "bgp.propagations": counters.get("bgp.propagations.total", 0),
            "kernel.resolve_rows": snapshot["histograms"].get("kernel.batch.rows", {}).get("sum", 0),
            "engine.cache_write_mb": counters.get("cache.write.bytes", 0) / 2**20,
            "engine.cache_read_mb": counters.get("cache.read.bytes", 0) / 2**20,
            "engine.result_hit_ratio": _rate(
                counters.get("engine.experiments.cache_hits.total", 0), experiments
            ),
        })
        digests = _check_digests([_check_cache(traced_cache, problems, validate=False)], problems)
        share = sum(values[k] for k in ("dns.isi_s", "ditl.generate_s",
                                        "ditl.preprocess_s", "ditl.join_s"))
        return Outcome(
            values=values, attempted=len(plain) + len(runs), failed=0, problems=problems,
            diagnostics={
                "traced_wall_s": [run.wall_s for run in runs],
                "plain_wall_s": [run.wall_s for run in plain],
                "dns_ditl_share": share / wall,
            },
            digests=digests,
        )
    finally:
        for cache in caches:
            remove(cache)
        remove(work)
