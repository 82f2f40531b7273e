"""Tests for ``repro.serve`` — service ops, envelope schema, HTTP daemon.

Three layers, cheapest first: the envelope schema against its
checked-in copy, the :class:`AnycastService` operations in-process
against the session scenario (including bitwise identity with the
library path), and the real daemon in a subprocess — every endpoint
over loopback HTTP, SIGTERM drain semantics, and deterministic
drain-under-load via the ``slow_request`` fault.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.anycast import CdnRing, IndependentDeployment, withdraw_sites
from repro.anycast.resilience import failure_impact
from repro.engine import ArtifactCache
from repro.experiments import Scenario
from repro.obs import metrics
from repro.obs.schema import validate_access_log_file
from repro.obs.trace import load_trace
from repro.serve import (
    SERVE_SCHEMA,
    SERVE_SCHEMA_VERSION,
    AnycastService,
    ServiceError,
    envelope,
    validate_envelope,
)
from repro.serve.schema import load_checked_in_schema
from repro.serve.service import MAX_ASN, MAX_RESOLVE_ROWS, MAX_WHATIF_SITES
from repro.serve.telemetry import ACCESS_LOG_SCHEMA

DOCS = Path(__file__).parent.parent / "docs"


@pytest.fixture(scope="module")
def service(scenario):
    return AnycastService(scenario)


def _user_pairs(scenario, count):
    """The first ``count`` user locations, plus one unrouted ASN (a masked row)."""
    locations = list(scenario.user_base)[:count]
    return [[loc.asn, loc.region_id] for loc in locations] + [[MAX_ASN - 1, 0]]


def _assert_payload_is_the_batch(payload, batch):
    """Every one of the seven resolve columns equals the library batch's.

    Exact: JSON floats round-trip, and masked rows (NaN) read ``null``.
    """
    assert payload["rows"] == len(batch)
    assert payload["served"] == int(batch.ok.sum())
    assert not batch.ok.all(), "no masked row: the null path went untested"
    assert payload["ok"] == [bool(v) for v in batch.ok]
    for column in ("site_ids", "site_region_ids", "as_hops"):
        assert payload[column] == [int(v) for v in getattr(batch, column)], column
    for column in ("base_rtt_ms", "site_km"):
        expected = [None if v != v else float(v) for v in getattr(batch, column)]
        assert payload[column] == expected, column
    assert payload["min_km"] == [float(v) for v in batch.min_km]


class TestEnvelopeSchema:
    def test_checked_in_schema_matches_embedded(self):
        # docs/serve.schema.json is the wire contract clients vendored;
        # the embedded dict must be byte-for-byte the same document.
        assert load_checked_in_schema() == SERVE_SCHEMA

    def test_envelope_shape(self):
        wrapped = envelope("resolve", {"rows": 1})
        assert validate_envelope(wrapped) == []
        assert wrapped["schema_version"] == SERVE_SCHEMA_VERSION
        assert wrapped["endpoint"] == "resolve"
        assert wrapped["payload"] == {"rows": 1}
        assert len(wrapped["code_version"]) == 64

    def test_envelope_round_trips_through_json(self):
        wrapped = envelope("inflation", {"median": 1.5, "masked": None})
        assert json.loads(json.dumps(wrapped)) == wrapped

    @pytest.mark.parametrize("mutate", [
        lambda e: e.pop("schema_version"),
        lambda e: e.pop("payload"),
        lambda e: e.update(payload=[1, 2]),
        lambda e: e.update(extra="nope"),
    ])
    def test_envelope_violations_are_caught(self, mutate):
        wrapped = envelope("scenario", {})
        mutate(wrapped)
        assert validate_envelope(wrapped)


class TestServiceOps:
    def test_scenario_payload_lists_every_deployment(self, service, scenario):
        payload = service.scenario_payload()
        expected = (
            {f"2018-{k}" for k in scenario.letters_2018}
            | {f"2020-{k}" for k in scenario.letters_2020}
            | set(scenario.cdn.rings)
        )
        assert set(payload["deployments"]) == expected
        assert payload["scale"] == "small"
        assert payload["total_users"] == scenario.user_base.total_users
        for name, info in payload["deployments"].items():
            assert info["kind"] == ("cdn-ring" if name.startswith("R") else "letter")
            assert info["whatif"] == (not name.startswith("R"))

    @pytest.mark.parametrize("name", ["2018-K", "R110"])
    def test_resolve_is_bitwise_identical_to_library(self, service, scenario, name):
        pairs = _user_pairs(scenario, 64)
        # Round-trip through actual JSON text, as a client would see it.
        payload = json.loads(json.dumps(service.resolve_payload(name, pairs)))
        batch = service.deployments[name].resolve_many(
            [p[0] for p in pairs], [p[1] for p in pairs]
        )
        _assert_payload_is_the_batch(payload, batch)

    def test_resolve_accepts_tuples_in_process(self, service, scenario):
        pairs = _user_pairs(scenario, 8)
        mixed = [tuple(pair) if i % 2 else pair for i, pair in enumerate(pairs)]
        assert service.resolve_payload("2018-K", mixed) == (
            service.resolve_payload("2018-K", pairs)
        )

    @pytest.mark.parametrize("pairs, message", [
        ([], "non-empty"),
        ("nope", "non-empty"),
        ([[1]], "integer pair"),
        ([[1, 2, 3]], "integer pair"),
        ([[1.5, 0]], "integer pair"),
        ([[True, 0]], "integer pair"),
        ([[1, 10**9]], "outside"),
        ([[2**63, 0]], r"asn 9223372036854775808 outside \[0, 2\*\*32\)"),
        ([[2**32, 0]], r"asn 4294967296 outside"),
        ([[-1, 0]], r"asn -1 outside"),
        ([[-2**63 - 1, 0]], r"asn -9223372036854775809 outside"),
        # The first bad pair is reported, after good ones too...
        ([[3, 0], [True, 0]], r"pairs\[1\] is not an \[asn, region\] integer pair"),
        ([[3, 0], [3, 2**64]], r"pairs\[1\]: region 18446744073709551616 outside"),
        # ...and the first error wins, within a pair and across pairs.
        ([[-1, 10**9]], r"pairs\[0\]: asn -1 outside"),
        ([[2**32, 0], [3, 10**9]], r"pairs\[0\]: asn 4294967296 outside"),
        ([[3, 10**9], [2**32, 0]], r"pairs\[0\]: region 1000000000 outside"),
    ])
    def test_resolve_rejects_malformed_pairs(self, service, pairs, message):
        with pytest.raises(ServiceError, match=message) as excinfo:
            service.resolve_payload("2018-K", pairs)
        assert excinfo.value.status == 400

    def test_resolve_row_cap(self, service):
        pairs = [[1, 0]] * (MAX_RESOLVE_ROWS + 1)
        with pytest.raises(ServiceError, match="cap") as excinfo:
            service.resolve_payload("2018-K", pairs)
        assert excinfo.value.status == 400

    def test_unknown_deployment_is_404(self, service):
        with pytest.raises(ServiceError, match="unknown deployment") as excinfo:
            service.catchment_payload("2018-ZZ")
        assert excinfo.value.status == 404

    def test_catchment_shares_sum_to_one(self, service):
        payload = service.catchment_payload("2018-K")
        shares = [s["share"] for s in payload["sites"]]
        assert abs(sum(shares) - 1.0) < 1e-9
        assert payload["max_site_share"] == pytest.approx(max(shares))
        assert shares == sorted(shares, reverse=True)
        assert 0 < payload["served_users"] <= payload["total_users"]

    def test_inflation_summaries_are_ordered(self, service):
        payload = service.inflation_payload("R110")
        for key in ("geographic_inflation_ms", "latency_inflation_ms"):
            summary = payload[key]
            assert 0.0 <= summary["zero_fraction"] <= 1.0
            assert summary["median"] <= summary["p90"] <= summary["p99"]
            assert 0.0 <= summary["over_100ms_fraction"] <= 1.0

    def test_whatif_remove_matches_library_path(self, service, scenario):
        letter = scenario.letters_2018["K"]
        degraded = withdraw_sites(letter, [0, 1])
        impact = failure_impact(letter, degraded, scenario.user_base)
        payload = service.whatif_payload("2018-K", [0, 1], None)
        assert payload["sites_before"] == len(letter.sites)
        assert payload["sites_after"] == len(degraded.sites)
        assert payload["users_rerouted"] == impact.users_rerouted
        assert payload["rerouted_fraction"] == impact.rerouted_fraction
        assert payload["median_rtt_after_ms"] == impact.median_rtt_after_ms
        assert payload["max_site_share_after"] == impact.max_site_share_after

    def test_whatif_add_regions_grows_the_deployment(self, service):
        before = len(service.deployments["2018-K"].sites)
        payload = service.whatif_payload("2018-K", None, [0, 1])
        assert payload["sites_after"] == before + 2
        assert payload["sites_before"] == before
        # Adding capacity must not *increase* concentration.
        assert payload["max_site_share_after"] <= payload["max_site_share_before"] + 1e-9

    def test_whatif_is_deterministic(self, service):
        first = service.whatif_payload("2018-K", [2], [3])
        second = service.whatif_payload("2018-K", [2], [3])
        assert first == second

    def test_whatif_rejects_rings(self, service):
        assert isinstance(service.deployments["R110"], CdnRing)
        with pytest.raises(ServiceError, match="CDN ring") as excinfo:
            service.whatif_payload("R110", [0], None)
        assert excinfo.value.status == 400

    def test_whatif_rejects_empty_and_oversized_changes(self, service):
        with pytest.raises(ServiceError, match="changes nothing"):
            service.whatif_payload("2018-K", None, None)
        with pytest.raises(ServiceError, match="cap"):
            service.whatif_payload("2018-K", list(range(MAX_WHATIF_SITES + 1)), None)

    def test_whatif_resolves_only_the_modified_deployment(self, service):
        # The baseline is the memoised user-base batch a catchment built.
        service.catchment_payload("2018-K")
        resolves = metrics.counter("kernel.resolves.total")
        for remove_sites, add_regions in (([0], None), (None, [3]), ([1], [4])):
            before = resolves.value
            service.whatif_payload("2018-K", remove_sites, add_regions)
            assert resolves.value - before == 1, (remove_sites, add_regions)

    def test_whatif_leaves_resident_deployment_untouched(self, service, scenario):
        resident = service.deployments["2018-K"]
        assert isinstance(resident, IndependentDeployment)
        sites_before = len(resident.sites)
        service.whatif_payload("2018-K", [0], None)
        assert len(resident.sites) == sites_before
        assert resident is scenario.letters_2018["K"]

    def test_execute_safe_reifies_client_errors(self, service):
        verdict = service.execute_safe("resolve", {"deployment": "nope", "pairs": [[1, 0]]})
        assert verdict[0] == "error"
        assert verdict[1] == 404
        ok = service.execute_safe("scenario", {})
        assert ok[0] == "ok" and ok[1]["scale"] == "small"

    def test_unknown_op_is_400(self, service):
        with pytest.raises(ServiceError, match="unknown operation"):
            service.execute("reticulate", {})

    def test_kernels_over_unpickled_world_copies_share_the_tables(
            self, tmp_path, monkeypatch):
        # On a filled cache, letters_2018, letters_2020 and cdn each
        # unpickle their own copy of the internet's topology; every
        # kernel must still share one distance matrix and exit table.
        monkeypatch.delenv("ANYCAST_REPRO_NO_CACHE", raising=False)
        cache = ArtifactCache(root=tmp_path)
        stages = ["internet", "user_base", "letters_2018", "letters_2020", "cdn"]
        Scenario(scale="small", seed=0, cache=cache).prepare(stages)
        service = AnycastService(Scenario(scale="small", seed=0, cache=cache))
        kernels = [
            d.fabric.kernel if isinstance(d, CdnRing) else d.kernel
            for d in service.deployments.values()
        ]
        assert len({id(k.topology) for k in kernels}) == 3
        assert len({id(k.distances) for k in kernels}) == 1
        assert len({id(k._exit) for k in kernels}) == 1


# -- the real daemon over loopback HTTP -------------------------------------

def _serve_argv(*extra):
    return [sys.executable, "-u", "-m", "repro.cli", "serve",
            "--scale", "small", "--seed", "0", "--port", "0", *extra]


def _serve_env(**overrides):
    src_dir = Path(repro.__file__).resolve().parents[1]
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src_dir), env.get("PYTHONPATH", "")) if p
    )
    env.pop("REPRO_FAULTS", None)
    env.update(overrides)
    return env


def _await_port(child, timeout=240.0):
    """Read the child's stdout until the readiness line; returns the port."""
    deadline = time.monotonic() + timeout
    lines = []
    while time.monotonic() < deadline:
        line = child.stdout.readline()
        if not line:
            break
        lines.append(line)
        if line.startswith("serving on http://"):
            return int(line.rsplit(":", 1)[1])
    raise AssertionError(f"daemon never became ready:\n{''.join(lines)}")


def _get(base, path, timeout=120):
    with urllib.request.urlopen(base + path, timeout=timeout) as response:
        return response.status, response.read()


def _metric(base, name):
    """One series' value on ``/v1/metrics`` (0 before its first count)."""
    _, body = _get(base, "/v1/metrics")
    for line in body.decode().splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    return 0.0


def _post(base, path, payload, timeout=120):
    request = urllib.request.Request(
        base + path, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, response.read()


@pytest.fixture(scope="module")
def daemon(scenario):
    # The `scenario` fixture guarantees the artifact cache is warm, so
    # the subprocess (same default cache root) boots from disk.
    child = subprocess.Popen(
        _serve_argv("--workers", "2", "--grace", "20"), env=_serve_env(),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        port = _await_port(child)
        yield f"http://127.0.0.1:{port}", child
    finally:
        if child.poll() is None:
            child.send_signal(signal.SIGTERM)
        out, _ = child.communicate(timeout=120)
    assert child.returncode == 0, f"daemon exited {child.returncode}:\n{out}"


class TestHttpDaemon:
    def test_healthz(self, daemon):
        base, _ = daemon
        status, body = _get(base, "/v1/healthz")
        wrapped = json.loads(body)
        assert status == 200
        assert validate_envelope(wrapped) == []
        assert wrapped["payload"]["status"] == "ok"
        assert wrapped["payload"]["scale"] == "small"
        assert wrapped["payload"]["workers"] == 2

    def test_every_json_endpoint_is_schema_valid(self, daemon):
        base, _ = daemon
        responses = [
            _get(base, "/v1/healthz"),
            _get(base, "/v1/scenario"),
            _post(base, "/v1/resolve", {"deployment": "R110", "pairs": [[3, 0]]}),
            _get(base, "/v1/catchment/2018-K"),
            _get(base, "/v1/inflation/2018-K"),
            _post(base, "/v1/whatif", {"deployment": "2018-K", "remove_sites": [0]}),
        ]
        for status, body in responses:
            assert status == 200
            wrapped = json.loads(body)
            assert validate_envelope(wrapped) == []
            assert wrapped["schema_version"] == SERVE_SCHEMA_VERSION

    def test_resolve_over_http_is_bitwise_identical(self, daemon, scenario):
        base, _ = daemon
        pairs = _user_pairs(scenario, 32)
        _, body = _post(base, "/v1/resolve", {"deployment": "2018-K", "pairs": pairs})
        payload = json.loads(body)["payload"]
        batch = scenario.letters_2018["K"].resolve_many(
            [p[0] for p in pairs], [p[1] for p in pairs]
        )
        _assert_payload_is_the_batch(payload, batch)

    @pytest.mark.parametrize("method, path, status", [
        ("GET", "/nope", 404),
        ("GET", "/v1/nope", 404),
        ("GET", "/v1/catchment", 404),          # missing deployment segment
        ("POST", "/v1/healthz", 405),
        ("GET", "/v1/resolve", 405),
    ])
    def test_routing_errors(self, daemon, method, path, status):
        base, _ = daemon
        request = urllib.request.Request(base + path, method=method,
                                         data=b"{}" if method == "POST" else None)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=60)
        with excinfo.value as error:  # closes the response's socket
            assert error.code == status
            wrapped = json.loads(error.read())
        assert validate_envelope(wrapped) == []
        assert "error" in wrapped["payload"]

    def test_client_error_payloads(self, daemon):
        base, _ = daemon
        # Each HTTPError holds its response open until closed.
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base, "/v1/resolve", {"deployment": "2018-K", "pairs": []})
        with excinfo.value as error:
            assert error.code == 400
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base, "/v1/whatif", {"deployment": "R110", "remove_sites": [0]})
        with excinfo.value as error:
            assert error.code == 400
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base, "/v1/catchment/2018-ZZ")
        with excinfo.value as error:
            assert error.code == 404

    def test_requests_refused_while_parsing_are_counted(self, daemon):
        base, _ = daemon
        host, port = base.removeprefix("http://").split(":")
        before = _metric(base, "repro_serve_responses_400_total")
        with socket.create_connection((host, int(port)), timeout=60) as sock:
            sock.sendall(b"GARBAGE\r\n\r\n")
            with sock.makefile("rb") as stream:
                reply = stream.read()  # the daemon closes after a parse error
        assert reply.startswith(b"HTTP/1.1 400 "), reply[:80]
        assert b"malformed request line" in reply
        assert _metric(base, "repro_serve_responses_400_total") == before + 1

    def test_metrics_exposition(self, daemon):
        base, _ = daemon
        _get(base, "/v1/healthz")  # ensure at least one counted request
        status, body = _get(base, "/v1/metrics")
        text = body.decode()
        assert status == 200
        assert "repro_serve_requests_total" in text
        assert "repro_serve_healthz_requests_total" in text
        assert "repro_serve_healthz_latency_ms_bucket" in text
        assert "repro_serve_responses_200_total" in text
        assert "repro_serve_deployments_resident" in text


class TestDrainSemantics:
    def test_sigterm_under_load_drains_cleanly(self, scenario):
        """SIGTERM mid-request: the in-flight answer lands, then exit 0.

        The ``slow_request`` fault pins a resolve in flight for 2 s —
        deterministically, not by racing — so the signal provably
        arrives while work is outstanding.
        """
        child = subprocess.Popen(
            _serve_argv("--workers", "0", "--grace", "30"),
            env=_serve_env(REPRO_FAULTS="slow_request:s=2:match=POST /v1/resolve"),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        port = _await_port(child)
        base = f"http://127.0.0.1:{port}"
        result = {}

        def slow_resolve():
            try:
                result["response"] = _post(
                    base, "/v1/resolve", {"deployment": "R110", "pairs": [[3, 0]]}
                )
            except Exception as error:  # noqa: BLE001 - recorded for the assert
                result["error"] = error

        client = threading.Thread(target=slow_resolve)
        client.start()
        time.sleep(0.5)  # well inside the 2 s injected delay
        child.send_signal(signal.SIGTERM)
        client.join(timeout=60)
        out, _ = child.communicate(timeout=120)
        assert child.returncode == 0, f"expected clean drain, got:\n{out}"
        assert "error" not in result, f"in-flight request failed: {result.get('error')}"
        status, body = result["response"]
        assert status == 200
        assert validate_envelope(json.loads(body)) == []

    def test_expired_grace_exits_preempted(self, scenario):
        """A request outliving ``--grace`` forces the batch exit code 4."""
        child = subprocess.Popen(
            _serve_argv("--workers", "0", "--grace", "0.5"),
            env=_serve_env(REPRO_FAULTS="slow_request:s=30:match=POST /v1/resolve"),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        port = _await_port(child)
        base = f"http://127.0.0.1:{port}"

        def doomed_resolve():
            try:
                _post(base, "/v1/resolve", {"deployment": "R110", "pairs": [[3, 0]]})
            except Exception:  # noqa: BLE001 - the daemon is expected to cut us off
                pass

        client = threading.Thread(target=doomed_resolve)
        client.start()
        time.sleep(0.5)
        child.send_signal(signal.SIGTERM)
        out, _ = child.communicate(timeout=120)
        client.join(timeout=60)
        assert child.returncode == 4, f"expected exit 4 (grace expired), got:\n{out}"


# -- request-scoped telemetry ------------------------------------------------

def _exchange(base, path, *, headers=None, payload=None):
    """One request; returns (status, response headers, body bytes)."""
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(base + path, data=data, headers=headers or {})
    if payload is not None:
        request.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(request, timeout=120) as response:
        return response.status, dict(response.headers), response.read()


class TestRequestId:
    def test_every_response_carries_a_request_id(self, daemon):
        base, _ = daemon
        for path in ("/v1/healthz", "/v1/metrics", "/v1/scenario"):
            _, headers, _ = _exchange(base, path)
            assert headers.get("X-Request-Id"), f"{path} carries no X-Request-Id"

    def test_generated_id_is_unique_per_request(self, daemon):
        base, _ = daemon
        ids = {_exchange(base, "/v1/healthz")[1]["X-Request-Id"] for _ in range(3)}
        assert len(ids) == 3

    def test_inbound_id_is_honoured(self, daemon):
        base, _ = daemon
        _, headers, _ = _exchange(
            base, "/v1/healthz", headers={"X-Request-Id": "client-abc_1.2"}
        )
        assert headers["X-Request-Id"] == "client-abc_1.2"

    @pytest.mark.parametrize("bad", ["has spaces", "x" * 200, "semi;colon"])
    def test_malformed_inbound_id_is_replaced(self, daemon, bad):
        base, _ = daemon
        _, headers, _ = _exchange(base, "/v1/healthz", headers={"X-Request-Id": bad})
        echoed = headers["X-Request-Id"]
        assert echoed and echoed != bad

    def test_error_responses_carry_a_request_id(self, daemon):
        base, _ = daemon
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _exchange(base, "/v1/nope", headers={"X-Request-Id": "err-1"})
        with excinfo.value as error:  # closes the response's socket
            assert error.code == 404
            assert error.headers.get("X-Request-Id") == "err-1"


class TestDebugEndpoints:
    def test_tracez_rings_record_requests(self, daemon):
        base, _ = daemon
        _, headers, _ = _exchange(base, "/v1/healthz",
                                  headers={"X-Request-Id": "tracez-probe"})
        status, body = _get(base, "/v1/debug/tracez")
        wrapped = json.loads(body)
        assert status == 200
        assert validate_envelope(wrapped) == []
        payload = wrapped["payload"]
        assert payload["records_total"] >= 1
        assert payload["recent"], "recent ring is empty after a request"
        probe = next(r for r in payload["recent"]
                     if r["trace_id"] == "tracez-probe")
        assert probe["endpoint"] == "healthz" and probe["status"] == 200
        assert probe["dur_ms"] > 0 and "parse" in probe["phases"]
        slowest = [r["dur_ms"] for r in payload["slowest"]]
        assert slowest == sorted(slowest, reverse=True)

    def test_statusz_reports_configuration_and_load(self, daemon):
        base, _ = daemon
        status, body = _get(base, "/v1/debug/statusz")
        wrapped = json.loads(body)
        assert status == 200
        assert validate_envelope(wrapped) == []
        payload = wrapped["payload"]
        assert payload["pid"] > 0
        assert payload["uptime_s"] > 0
        assert payload["draining"] is False
        assert payload["workers"] == 2
        assert payload["scale"] == "small" and payload["seed"] == 0
        assert payload["trace_enabled"] is False
        assert payload["access_log"] is None
        assert payload["inflight"] >= 1  # at least this request
        assert payload["max_inflight"] == 2  # one admission slot per worker
        assert payload["admission_queued"] >= 0

    def test_vars_exposes_process_stats_and_metrics(self, daemon):
        base, _ = daemon
        status, body = _get(base, "/v1/debug/vars")
        wrapped = json.loads(body)
        assert status == 200
        assert validate_envelope(wrapped) == []
        payload = wrapped["payload"]
        assert set(payload) == {"process", "metrics"}
        assert set(payload["process"]) == {"rss_bytes", "rss_is_peak", "open_fds"}
        assert payload["metrics"]["counters"]["serve.requests.total"] >= 1

    def test_metrics_exposes_phase_histograms_and_gauges(self, daemon):
        base, _ = daemon
        # An offloaded request so the compute phase has been observed.
        _post(base, "/v1/resolve", {"deployment": "2018-K", "pairs": [[3, 0]]})
        _, body = _get(base, "/v1/metrics")
        text = body.decode()
        for needle in (
            "repro_serve_phase_parse_ms_bucket",
            "repro_serve_phase_queue_ms_bucket",
            "repro_serve_phase_compute_ms_bucket",
            "repro_serve_phase_serialize_ms_bucket",
            "repro_serve_inflight",
            "repro_serve_admission_queued",
            "repro_process_rss_bytes",
            "repro_process_open_fds",
        ):
            assert needle in text, f"/v1/metrics missing {needle}"


class TestAccessLogContract:
    def test_checked_in_schema_matches_embedded(self):
        # docs/accesslog.schema.json is the contract log shippers vendor;
        # the embedded dict must be byte-for-byte the same document.
        with open(DOCS / "accesslog.schema.json", encoding="utf-8") as handle:
            assert json.load(handle) == ACCESS_LOG_SCHEMA


class TestTracedDaemon:
    """workers=4 with ``--trace`` and ``--access-log``: the full contract.

    Boots the daemon tracing into a tmp file, sends resolves (answered
    on the daemon's event loop) and catchments (answered by pool
    workers) with client-supplied request ids, drains, then checks the
    three outputs against each other: response headers, access-log
    records, and the merged span tree (worker spans re-rooted under the
    request's compute frame, exclusive times telescoping to the request
    wall time).
    """

    #: ``(endpoint, path, JSON body or None for a GET)``, sent as
    #: ``traced-<index>``.
    PLAN = (
        ("resolve", "/v1/resolve", {"deployment": "2018-K", "pairs": [[3, 0], [7, 1]]}),
        ("catchment", "/v1/catchment/2018-K", None),
        ("resolve", "/v1/resolve", {"deployment": "R110", "pairs": [[3, 0]]}),
        ("catchment", "/v1/catchment/R110", None),
    )
    REQUESTS = len(PLAN)

    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory, scenario):
        tmp_path = tmp_path_factory.mktemp("serve-traced")
        trace_path = tmp_path / "daemon.jsonl"
        access_path = tmp_path / "access.jsonl"
        child = subprocess.Popen(
            _serve_argv("--workers", "4", "--grace", "30",
                        "--trace", str(trace_path),
                        "--access-log", str(access_path)),
            env=_serve_env(),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        port = _await_port(child)
        base = f"http://127.0.0.1:{port}"
        responses = []
        for i, (_endpoint, path, payload) in enumerate(self.PLAN):
            responses.append(_exchange(
                base, path, headers={"X-Request-Id": f"traced-{i}"}, payload=payload,
            ))
        child.send_signal(signal.SIGTERM)
        out, _ = child.communicate(timeout=120)
        assert child.returncode == 0, f"traced daemon exited dirty:\n{out}"
        return {
            "trace": load_trace(trace_path),
            "access_path": access_path,
            "access": [json.loads(line)
                       for line in access_path.read_text().splitlines()],
            "responses": responses,
        }

    def test_responses_echo_inbound_ids(self, traced):
        for i, (status, headers, _) in enumerate(traced["responses"]):
            assert status == 200
            assert headers["X-Request-Id"] == f"traced-{i}"

    def test_access_log_is_schema_valid(self, traced):
        with open(DOCS / "accesslog.schema.json", encoding="utf-8") as handle:
            schema = json.load(handle)
        assert validate_access_log_file(traced["access_path"], schema) == []

    def test_access_records_join_responses_by_trace_id(self, traced):
        by_id = {r["trace_id"]: r for r in traced["access"]}
        for i, (endpoint, path, payload) in enumerate(self.PLAN):
            record = by_id[f"traced-{i}"]
            assert record["endpoint"] == endpoint and record["path"] == path
            assert record["method"] == ("POST" if payload else "GET")
            assert record["status"] == 200
            assert (record["bytes_in"] > 0) == (payload is not None)
            assert record["bytes_out"] > 0
            assert set(record["phases"]) >= {"parse", "queue", "compute", "serialize"}
            # Phases never exceed the request wall time they break down.
            assert sum(record["phases"].values()) <= record["dur_ms"] * 1.01

    def test_access_records_are_read_off_the_request_spans(self, traced):
        """Each access record is its ``serve.request`` span, read once.

        ``dur_ms`` is the span's ``dur_s`` and each phase its direct
        child's, in milliseconds, exactly: no second clock times a
        request.
        """
        records = traced["trace"]
        spans = {r["attrs"]["trace_id"]: r for r in self._request_spans(records)}
        assert len(traced["access"]) == len(spans) == self.REQUESTS
        for access in traced["access"]:
            span = spans[access["trace_id"]]
            assert access["dur_ms"] == span["dur_s"] * 1000.0
            assert access["ts"] == span["ts"]
            children = {r["name"]: r for r in records if r["parent"] == span["id"]}
            assert {f"serve.{name}" for name in access["phases"]} == set(children)
            for name, ms in access["phases"].items():
                assert ms == children[f"serve.{name}"]["dur_s"] * 1000.0, name
            for key in ("method", "path", "bytes_in", "endpoint", "status", "bytes_out"):
                assert access[key] == span["attrs"][key], key

    def _request_spans(self, records):
        return [r for r in records if r["name"] == "serve.request"]

    def test_trace_has_one_request_span_per_request(self, traced):
        records = traced["trace"]
        root = next(r for r in records if r["parent"] is None)
        assert root["name"] == "serve.daemon"
        requests = self._request_spans(records)
        assert len(requests) == self.REQUESTS
        assert {r["attrs"]["trace_id"] for r in requests} == {
            f"traced-{i}" for i in range(self.REQUESTS)
        }
        for request in requests:
            index = int(request["attrs"]["trace_id"].removeprefix("traced-"))
            assert request["parent"] == root["id"]
            assert request["attrs"]["endpoint"] == self.PLAN[index][0]
            assert request["attrs"]["status"] == 200

    def test_request_spans_have_the_phase_children(self, traced):
        records = traced["trace"]
        for request in self._request_spans(records):
            children = {r["name"] for r in records if r["parent"] == request["id"]}
            assert children >= {"serve.parse", "serve.queue",
                               "serve.compute", "serve.serialize"}

    def test_worker_spans_reroot_under_the_compute_frame(self, traced):
        records = traced["trace"]
        computes = {r["id"]: r for r in records if r["name"] == "serve.compute"}
        requests = {r["id"]: r for r in self._request_spans(records)}
        tasks = [r for r in records if r["name"] == "serve.task"]
        assert len(tasks) == self.REQUESTS
        request_pids = {r["pid"] for r in requests.values()}
        assert len(request_pids) == 1
        for task in tasks:
            assert task["parent"] in computes, "serve.task not under serve.compute"
            # ...and under this request's own compute frame.
            request = requests[computes[task["parent"]]["parent"]]
            assert task["attrs"]["op"] == request["attrs"]["endpoint"]
            if task["attrs"]["op"] == "resolve":
                assert task["pid"] in request_pids, "resolve left the daemon process"
            else:
                assert task["pid"] not in request_pids, "task span ran in the daemon process"
        assert {task["attrs"]["op"] for task in tasks} == {"resolve", "catchment"}

    def test_exclusive_times_telescope_per_request(self, traced):
        """Σ self_s over a request's subtree ≈ the request's wall time.

        This is the acceptance bar for cross-process attribution: the
        worker's wall time lands in the compute frame's child time, so
        no duration is counted twice and none goes missing.
        """
        records = traced["trace"]
        children = {}
        for record in records:
            children.setdefault(record["parent"], []).append(record)
        for request in self._request_spans(records):
            total = 0.0
            stack = [request]
            while stack:
                span = stack.pop()
                total += span["self_s"]
                stack.extend(children.get(span["id"], []))
            assert total == pytest.approx(request["dur_s"], rel=0.05)

    def test_whole_trace_telescopes_to_daemon_wall(self, traced):
        records = traced["trace"]
        root = next(r for r in records if r["parent"] is None)
        assert sum(r["self_s"] for r in records) == pytest.approx(
            root["dur_s"], rel=0.05
        )


# -- soak: sustained mixed load against the 4-worker daemon -----------------

@pytest.mark.soak
def test_whatif_soak(scenario):
    """Keep-alive clients hammer ``/v1/{resolve,whatif}`` for a while.

    The production question behind the delta work: can a 4-worker daemon
    absorb a sustained stream of incremental what-ifs without leaking?
    Bars: zero 5xx responses, ``kernel.delta.applies.total`` growing in
    ``/v1/metrics`` (the delta path is actually carrying the traffic),
    and ``process.rss_bytes`` stable between warm-up and teardown.

    Duration comes from ``REPRO_SOAK_SECONDS`` (default 3 — a smoke
    pass inside tier-1; CI's soak job runs it longer).
    """
    import http.client

    duration = float(os.environ.get("REPRO_SOAK_SECONDS", "3"))
    clients = 4
    child = subprocess.Popen(
        _serve_argv("--workers", "4", "--grace", "30"), env=_serve_env(),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        port = _await_port(child)
        base = f"http://127.0.0.1:{port}"

        def debug_vars():
            _, body = _get(base, "/v1/debug/vars")
            return json.loads(body)["payload"]

        def delta_applies_from_metrics():
            _, body = _get(base, "/v1/metrics")
            for line in body.decode().splitlines():
                if line.startswith("repro_kernel_delta_applies_total "):
                    return int(float(line.split()[1]))
            return 0

        # Warm every path once so RSS is measured post-allocation.
        _post(base, "/v1/resolve", {"deployment": "2018-K", "pairs": [[3, 0]]})
        _post(base, "/v1/whatif", {"deployment": "2018-K", "remove_sites": [0]})
        warm = debug_vars()
        rss_warm = warm["process"]["rss_bytes"]
        applies_before = delta_applies_from_metrics()

        pairs = _user_pairs(scenario, 16)
        stop = threading.Event()
        lock = threading.Lock()
        tally = {"requests": 0, "whatifs": 0, "5xx": 0, "errors": []}

        def hammer(worker_id):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
            n = 0
            while not stop.is_set():
                if n % 3 == 0:
                    path, body = "/v1/whatif", {
                        "deployment": "2018-K",
                        "remove_sites": [(worker_id + n) % 4],
                        "add_regions": [n % 7] if n % 2 else None,
                    }
                else:
                    path, body = "/v1/resolve", {
                        "deployment": "2018-K" if n % 2 else "R110",
                        "pairs": pairs,
                    }
                try:
                    conn.request("POST", path, body=json.dumps(body).encode(),
                                 headers={"Content-Type": "application/json"})
                    response = conn.getresponse()
                    response.read()  # drain so the connection is reusable
                    with lock:
                        tally["requests"] += 1
                        tally["whatifs"] += path.endswith("whatif")
                        tally["5xx"] += response.status >= 500
                except (http.client.HTTPException, OSError) as error:
                    if stop.is_set():
                        break
                    with lock:
                        tally["errors"].append(repr(error))
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
                n += 1
            conn.close()

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(clients)]
        for thread in threads:
            thread.start()
        time.sleep(duration)
        stop.set()
        for thread in threads:
            thread.join(timeout=120)

        after = debug_vars()
        rss_after = after["process"]["rss_bytes"]
        applies_after = delta_applies_from_metrics()

        assert tally["5xx"] == 0, f"{tally['5xx']} 5xx responses under soak"
        assert not tally["errors"], f"transport errors under soak: {tally['errors'][:3]}"
        assert tally["whatifs"] > 0 and tally["requests"] > tally["whatifs"]
        assert applies_after > applies_before, (
            "kernel.delta.applies.total did not grow — what-ifs are not "
            "taking the delta path"
        )
        if rss_warm is not None and rss_after is not None:
            growth = rss_after - rss_warm
            assert growth < max(rss_warm * 0.5, 256 * 1024 * 1024), (
                f"RSS grew {growth / 1e6:.0f} MB under soak "
                f"({rss_warm / 1e6:.0f} → {rss_after / 1e6:.0f} MB)"
            )
    finally:
        if child.poll() is None:
            child.send_signal(signal.SIGTERM)
        out, _ = child.communicate(timeout=120)
    assert child.returncode == 0, f"daemon exited {child.returncode}:\n{out}"
