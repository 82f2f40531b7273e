"""Serve workloads: ``/v1`` traffic against a ``repro serve`` child process.

The daemon runs with its default flags (``--workers 2``, the forked
pool users run) on the paper-scale ``medium`` world, seed 0.  Each run
warms the artifact cache untimed, boots the daemon three times for
``setup_s``, keeps the third one, and then drives three windows that
split ``--seconds``:

* a discarded warm-up (closed loop; for the mixed workload it first
  touches every deployment's catchment and inflation answers, which
  each worker memoises on first use);
* a closed loop on every connection -> ``throughput_per_s``;
* an open loop with Poisson arrivals -> ``latency_p50_ms`` of the
  resolve requests, timed from their due time (p90, p99 and the
  best-supported tail are printed beside it).

``serve-resolve`` sends only 64-pair resolves: each is ~90% overhead
around a ~0.15 ms kernel call, so parse/queue/offload/serialize
dominate.  ``serve-mixed`` sends 85% resolves, 5% catchment, 5%
inflation and 5% what-ifs (withdraw one site or add one region on a
letter with two or more global sites): what-ifs run BGP re-propagation,
a kernel patch and an impact evaluation for 15–50 ms on the same
workers that answer the reads, so a change that speeds one side by
starving the other shows in the mix's closed-loop throughput.

The open-loop rates (100 and 50 req/s) keep the chance that a due
request finds both connections busy at a few percent.  At 200–400 req/s
that chance is 10–35%, so p90 sat on the edge between waited and
unwaited requests and amplified the host's own speed drift into a
15–33% run-to-run spread.  Capacity is what the closed loop measures.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import re
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import loadgen
from batch import layer_values, self_times
from harness import (
    BenchError,
    Child,
    Outcome,
    fresh_dir,
    log_tail,
    percentile,
    remove,
    repro_cmd,
    summarize,
)

SCALE = "medium"
WORLD_SEED = 0
#: The stages ``repro serve`` loads at boot.
SERVE_STAGES = ("internet", "user_base", "letters_2018", "letters_2020", "cdn")
#: Keep-alive connections: two, and never more than the host has CPUs.
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
BOOT_REPEATS = 3
BOOT_TIMEOUT_S = 120.0
#: Answers checked after each window (envelope schema; byte-identity of resolves).
CHECK_SAMPLES = 50
#: How ``--seconds`` is split between warm-up, closed loop and open loop.
WINDOW_SHARES = (0.15, 0.30, 0.55)
#: Closed-loop requests are cycled from a pool this large.
CLOSED_POOL = 4096


@dataclass(frozen=True, slots=True)
class Profile:
    mix: str  #: a key of ``loadgen.MIXES``
    rate: float  #: open-loop arrivals per second


PROFILES = {
    "serve-resolve": Profile(mix="resolve", rate=100.0),
    "serve-mixed": Profile(mix="mixed", rate=50.0),
}


@dataclass(slots=True)
class TrafficPlan:
    """Every request of one run, encoded from the seed before any timing."""

    warmup: list
    warmup_s: float
    closed: list
    closed_s: float
    open: list
    due: np.ndarray
    keep: frozenset  #: open-loop indices whose answers are checked


def plan_traffic(seed: int, catalogue: loadgen.Catalogue, profile: Profile,
                 seconds: float) -> TrafficPlan:
    rng = np.random.default_rng(seed)
    warmup_s, closed_s, open_s = (seconds * share for share in WINDOW_SHARES)
    warmup = []
    if profile.mix != "resolve":
        for _ in range(CONNECTIONS + 1):
            for name in catalogue.deployments:
                for kind in ("catchment", "inflation"):
                    warmup.append(loadgen.Request(kind, "warm", loadgen.encode(
                        "GET", f"/v1/{kind}/{name}", "warm")))
    warmup += loadgen.make_requests(rng, catalogue, profile.mix, 512, "warm")
    closed = loadgen.make_requests(rng, catalogue, profile.mix, CLOSED_POOL, "closed")
    due = loadgen.poisson_arrivals(rng, profile.rate, open_s)
    open_ = loadgen.make_requests(rng, catalogue, profile.mix, len(due), "open")
    resolves = [i for i, request in enumerate(open_) if request.kind == "resolve"]
    keep = set(rng.choice(len(open_), size=min(CHECK_SAMPLES, len(open_)), replace=False))
    keep |= set(rng.choice(resolves, size=min(CHECK_SAMPLES, len(resolves)), replace=False))
    return TrafficPlan(warmup, warmup_s, closed, closed_s, open_, due,
                       frozenset(int(i) for i in keep))


# -- the daemon -----------------------------------------------------------------


class Daemon:
    """One ``repro serve`` child: booted on construction, drained by :meth:`stop`."""

    def __init__(self, cache: Path, work: Path, *extra: str):
        self.log_path = work / "serve.log"
        self.exit_code: int | None = None
        self.peak_rss_mb = 0.0
        with open(self.log_path, "ab") as log:
            started = time.perf_counter()
            self.child = Child(
                repro_cmd("serve", "--scale", SCALE, "--seed", str(WORLD_SEED), "--port", "0",
                          "--cache-dir", str(cache), *extra),
                work / "serve.result.json", stdout=subprocess.PIPE, stderr=log,
            )
        watchdog = threading.Timer(BOOT_TIMEOUT_S, self.child.kill)
        watchdog.start()
        try:
            line = self.child.proc.stdout.readline()
        finally:
            watchdog.cancel()
        self.boot_s = time.perf_counter() - started
        match = re.search(rb"serving on http://([^:/]+):(\d+)", line)
        if match is None:
            self.stop()
            raise BenchError(f"repro serve did not come up: {log_tail(self.log_path)}")
        self.host, self.port = match.group(1).decode(), int(match.group(2))

    def get(self, path: str) -> bytes:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read()
        finally:
            connection.close()
        if response.status != 200:
            raise BenchError(f"GET {path} answered {response.status}")
        return body

    def counters(self) -> dict:
        """The ``/v1/metrics`` exposition as ``{name: value}``."""
        values = {}
        for line in self.get("/v1/metrics").decode().splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                values[name] = float(value)
        return values

    def stop(self) -> int:
        """SIGTERM, reap, and record the exit code and peak resident set."""
        if self.exit_code is None:
            done = self.child.terminate()
            self.child.proc.stdout.close()
            self.exit_code, self.peak_rss_mb = done.exit_code, done.peak_rss_mb
        return self.exit_code

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


# -- scenario side ------------------------------------------------------------


def _scenario(cache: Path):
    from repro.experiments import ArtifactCache, Scenario

    return Scenario(scale=SCALE, seed=WORLD_SEED, cache=ArtifactCache(root=cache))


def _deployment(scenario, name: str):
    year, _, letter = name.partition("-")
    if year == "2018":
        return scenario.letters_2018[letter]
    if year == "2020":
        return scenario.letters_2020[letter]
    return scenario.cdn.rings[name]


def _pairs(scenario) -> np.ndarray:
    return np.array([[loc.asn, loc.region_id] for loc in scenario.user_base],
                    dtype=np.int64)


def _expected_resolve(scenario, request: loadgen.Request) -> dict:
    """The resolve payload computed in-process with ``resolve_many``."""
    from repro.api import resolve_many

    body = json.loads(request.wire.split(b"\r\n\r\n", 1)[1])
    pairs = np.array(body["pairs"], dtype=np.int64)
    batch = resolve_many(_deployment(scenario, body["deployment"]), pairs[:, 0], pairs[:, 1])

    def floats(values):
        return [None if v != v else float(v) for v in values]

    return {
        "deployment": body["deployment"],
        "rows": len(batch),
        "served": int(batch.ok.sum()),
        "ok": [bool(v) for v in batch.ok],
        "site_ids": [int(v) for v in batch.site_ids],
        "site_region_ids": [int(v) for v in batch.site_region_ids],
        "as_hops": [int(v) for v in batch.as_hops],
        "base_rtt_ms": floats(batch.base_rtt_ms),
        "site_km": floats(batch.site_km),
        "min_km": [float(v) for v in batch.min_km],
    }


def check_answers(plan: TrafficPlan, phase: loadgen.Phase, scenario, problems: list) -> int:
    """Envelope-validate the kept answers; compare kept resolves byte for byte.

    Returns how many answers were checked.
    """
    from repro.serve.schema import validate_envelope

    checked = 0
    for sample in phase.samples:
        if sample.body is None or sample.status != 200:
            continue
        checked += 1
        document = json.loads(sample.body)
        errors = validate_envelope(document)
        if errors:
            problems.append(f"{sample.request_id}: envelope invalid: {errors[:3]}")
            continue
        if sample.kind == "resolve":
            expected = _expected_resolve(scenario, plan.open[sample.index])
            got = json.dumps(document["payload"], sort_keys=True)
            if got != json.dumps(expected, sort_keys=True):
                problems.append(f"{sample.request_id}: resolve differs from resolve_many")
    if checked < min(CHECK_SAMPLES, len(plan.open)):
        problems.append(f"only {checked} answers could be checked")
    return checked


# -- driving ------------------------------------------------------------------


def _catalogue(daemon: Daemon, scenario) -> loadgen.Catalogue:
    payload = json.loads(daemon.get("/v1/scenario"))["payload"]
    return loadgen.Catalogue.from_scenario_payload(payload, _pairs(scenario))


async def _drive(daemon: Daemon, plan: TrafficPlan, *, closed: bool = True):
    host, port = daemon.host, daemon.port
    warm = await loadgen.closed_loop(host, port, plan.warmup, plan.warmup_s, CONNECTIONS)
    loop_phase = None
    if closed:
        loop_phase = await loadgen.closed_loop(host, port, plan.closed, plan.closed_s,
                                               CONNECTIONS)
    open_phase = await loadgen.open_loop(host, port, plan.open, plan.due, CONNECTIONS,
                                         plan.keep)
    return warm, loop_phase, open_phase


def _boot_times(cache: Path, work: Path, problems: list) -> list[float]:
    times = []
    for _ in range(BOOT_REPEATS - 1):
        with Daemon(cache, work) as daemon:
            times.append(daemon.boot_s)
        if daemon.exit_code != 0:
            problems.append(f"daemon drained with exit {daemon.exit_code}")
    return times


def measure(workload: str, seed: int, seconds: float) -> Outcome:
    profile = PROFILES[workload]
    work = fresh_dir(f"{workload}-")
    try:
        problems: list = []
        cache = work / "cache"
        scenario = _scenario(cache)
        scenario.prepare(list(SERVE_STAGES))  # untimed: the daemon boots on a warm cache
        boots = _boot_times(cache, work, problems)
        with Daemon(cache, work) as daemon:
            boots.append(daemon.boot_s)
            plan = plan_traffic(seed, _catalogue(daemon, scenario), profile, seconds)
            warm, closed, open_ = asyncio.run(_drive(daemon, plan))
            counters = daemon.counters()
        if daemon.exit_code != 0:
            problems.append(f"daemon drained with exit {daemon.exit_code}")
        checked = check_answers(plan, open_, scenario, problems)
        resolve_ms = loadgen.latencies_ms(open_)
        if not resolve_ms:
            raise BenchError("no resolve request succeeded")
        phases = (warm, closed, open_)
        values = {
            "setup_s": statistics.median(boots),
            "latency_p50_ms": percentile(resolve_ms, 50),
            "throughput_per_s": sum(s.status == 200 for s in closed.samples) / closed.elapsed_s,
            "peak_rss_mb": daemon.peak_rss_mb,
        }
        return Outcome(
            values=values,
            attempted=sum(len(phase.samples) for phase in phases),
            failed=sum(phase.failed for phase in phases),
            problems=problems,
            diagnostics={
                "boots_s": boots,
                "resolve_ms": summarize(resolve_ms),
                "whatif_ms": summarize(loadgen.latencies_ms(open_, ("whatif",))),
                "lag_ms": summarize(loadgen.lags_ms(open_)),
                "closed_requests": len(closed.samples),
                "open_requests": len(open_.samples),
                "open_elapsed_s": open_.elapsed_s,
                "checked_answers": checked,
                "shed": counters.get("repro_serve_shed_total", 0.0),
            },
        )
    finally:
        remove(work)


# -- the traced breakdown -----------------------------------------------------

#: Span names whose exclusive time is kernel work inside one request.
KERNEL_SPANS = ("kernel.resolve", "deployment.resolve_many", "cdn.resolve_many",
                "cdn.ingress_many")
#: A what-if's BGP re-propagation, and its kernel-table patch (or rebuild on fallback).
BGP_SPANS = ("bgp.repropagate", "bgp.propagate")
DELTA_SPANS = ("kernel.delta", "kernel.build", "kernel.distance_matrix")


def _traced_boot(cache: Path, work: Path):
    """Replay the daemon's boot in-process under a trace: stage loads, kernel warm-up."""
    from repro.api import resolve_many
    from repro.obs import metrics, trace
    from repro.obs.trace import load_trace

    metrics.reset()
    path = work / "boot.trace.jsonl"
    scenario = _scenario(cache)
    with trace.capture(path, name="bench.boot"):
        for name in SERVE_STAGES:
            with trace.span("bench.stage", stage=name):
                scenario.prepare([name])
        probe = next(iter(scenario.user_base))
        deployments = [*scenario.letters_2018.values(), *scenario.letters_2020.values(),
                       *scenario.cdn.rings.values()]
        for deployment in deployments:
            with trace.span("bench.warm"):
                resolve_many(deployment, [probe.asn], [probe.region_id])
    values = layer_values(self_times(load_trace(path)))
    counters = metrics.snapshot()["counters"]
    values["engine.cache_read_mb"] = counters.get("cache.read.bytes", 0) / 2**20
    return scenario, values


def _subtrees(records: list) -> dict:
    """``trace_id`` -> every span record under that request's ``serve.request`` span."""
    children: dict = {}
    for record in records:
        children.setdefault(record["parent"], []).append(record)
    trees = {}
    for record in records:
        if record["name"] != "serve.request":
            continue
        nodes, stack = [], [record]
        while stack:
            node = stack.pop()
            nodes.append(node)
            stack.extend(children.get(node["id"], ()))
        trees[record["attrs"].get("trace_id")] = nodes
    return trees


def _self_ms(nodes: list, names: tuple) -> float:
    return sum(node["self_s"] for node in nodes if node["name"] in names) * 1000.0


def _p(values: list, q: float) -> float:
    return percentile(values, q) if values else 0.0


def request_layers(phase: loadgen.Phase, access: list, records: list) -> dict:
    """Per-phase and per-layer percentiles over the open-loop requests."""
    by_id = {record["trace_id"]: record for record in access}
    trees = _subtrees(records)
    series: dict = {}

    def add(name: str, value: float) -> None:
        series.setdefault(name, []).append(value)

    for sample in phase.samples:
        record = by_id.get(sample.request_id)
        nodes = trees.get(sample.request_id)
        if sample.status != 200 or record is None or nodes is None:
            continue
        phases = record["phases"]
        client_ms = (sample.done - sample.sent) * 1000.0
        task_ms = sum(n["dur_s"] for n in nodes if n["name"] == "serve.task") * 1000.0
        if sample.kind == "resolve":
            for name in ("parse", "queue", "compute", "serialize"):
                add(f"serve.{name}", phases.get(name, 0.0))
            add("serve.task", task_ms)
            add("serve.offload", phases.get("compute", 0.0) - task_ms)
            add("serve.unaccounted", client_ms - sum(phases.values()))
            add("coverage", sum(phases.values()) / client_ms)
            add("kernel.resolve", _self_ms(nodes, KERNEL_SPANS))
        elif sample.kind == "whatif":
            bgp, delta = _self_ms(nodes, BGP_SPANS), _self_ms(nodes, DELTA_SPANS)
            add("bgp.repropagate", bgp)
            add("kernel.delta", delta)
            add("whatif.rest", task_ms - bgp - delta)
            # Most of the rest: resolving the user base before and after the edit.
            add("whatif.resolve", _self_ms(nodes, KERNEL_SPANS))
            add("client.whatif", (sample.done - sample.due) * 1000.0)

    values = {}
    for name in ("serve.parse", "serve.queue", "serve.compute", "serve.serialize",
                 "serve.task", "serve.offload", "serve.unaccounted", "client.whatif"):
        values[f"{name}_p50_ms"] = _p(series.get(name, []), 50)
        values[f"{name}_p90_ms"] = _p(series.get(name, []), 90)
    for name in ("kernel.resolve", "bgp.repropagate", "kernel.delta", "whatif.rest",
                 "whatif.resolve"):
        values[f"{name}_p50_ms"] = _p(series.get(name, []), 50)
    values["trace.coverage_ratio"] = _p(series.get("coverage", []), 50)
    values["client.lag_p90_ms"] = _p(loadgen.lags_ms(phase), 90)
    return values


def traced(workload: str, seed: int, seconds: float) -> Outcome:
    """Phase and layer breakdown of one traced daemon, plus tracing overhead."""
    from repro.obs.trace import load_trace

    profile = PROFILES[workload]
    work = fresh_dir(f"{workload}-traced-")
    try:
        problems: list = []
        cache = work / "cache"
        _scenario(cache).prepare(list(SERVE_STAGES))
        scenario, values = _traced_boot(cache, work)
        with Daemon(cache, work) as daemon:
            plan = plan_traffic(seed, _catalogue(daemon, scenario), profile, seconds)
            _, _, plain = asyncio.run(_drive(daemon, plan, closed=False))
        trace_path, access_path = work / "serve.trace.jsonl", work / "access.jsonl"
        with Daemon(cache, work, "--trace", str(trace_path),
                    "--access-log", str(access_path)) as daemon:
            phases = asyncio.run(_drive(daemon, plan))
            counters = daemon.counters()
        if daemon.exit_code != 0:
            problems.append(f"traced daemon drained with exit {daemon.exit_code}")
        open_ = phases[2]
        check_answers(plan, open_, scenario, problems)
        values.update(request_layers(open_, load_trace(access_path), load_trace(trace_path)))
        plain_p50 = percentile(loadgen.latencies_ms(plain), 50)
        whatifs = counters.get("repro_serve_whatif_requests_total", 0.0)
        values.update({
            "trace.overhead_ratio": percentile(loadgen.latencies_ms(open_), 50) / plain_p50,
            "serve.shed": counters.get("repro_serve_shed_total", 0.0),
            "serve.deadline_expired": counters.get("repro_serve_deadline_expired_total", 0.0),
            "serve.worker_lost": counters.get("repro_serve_worker_lost_total", 0.0),
            "serve.retries": counters.get("repro_serve_retries_total", 0.0),
            "kernel.delta_fallback_ratio": (
                counters.get("repro_kernel_delta_fallbacks_total", 0.0) / whatifs
                if whatifs else 0.0
            ),
            "bgp.propagations": counters.get("repro_bgp_propagations_total", 0.0),
            "kernel.resolve_rows": counters.get("repro_kernel_batch_rows_sum", 0.0),
        })
        return Outcome(
            values=values,
            attempted=sum(len(phase.samples) for phase in (plain, *phases)),
            failed=sum(phase.failed for phase in (plain, *phases)),
            problems=problems,
            diagnostics={"plain_p50_ms": plain_p50, "open_requests": len(open_.samples)},
        )
    finally:
        remove(work)
