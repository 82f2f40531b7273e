#!/usr/bin/env python3
"""End-to-end smoke of the ``repro serve`` daemon (the CI serve-smoke job).

Usage::

    python scripts/serve_smoke.py

Boots the daemon on an ephemeral port at the small scale, hits every
``/v1`` endpoint (including the ``/v1/debug/*`` surface), validates
each JSON response against the checked-in ``docs/serve.schema.json``,
checks the ``X-Request-Id`` contract (always present, inbound ids
honoured), checks that ``/v1/debug/statusz`` reports an admission
capacity (``max_inflight``) of one slot per ``--workers``, checks that
a malformed request line is answered 400 and moves
``repro_serve_responses_400_total`` by exactly one, asserts the
Prometheus exposition carries the per-endpoint counters plus the phase
histograms and resource gauges, then SIGTERMs and requires a clean
drain (exit 0).

A second leg boots a one-worker daemon in its own session, crashes its
worker with an injected fault (so the retry runs on a worker respawned
under the daemon's signal handlers), then sends SIGINT to the whole
process group, as Ctrl-C in a terminal does.  The daemon must drain
and exit 0 within ``--grace`` and leave no process of the group behind.
Exits non-zero on the first violation.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

try:
    from repro.obs.schema import validate
except ImportError:  # uninstalled checkout: fall back to the src layout
    sys.path.insert(0, str(REPO / "src"))
    from repro.obs.schema import validate


def _fail(message: str) -> int:
    print(f"FAIL: {message}", file=sys.stderr)
    return 1


def _get(base: str, path: str):
    with urllib.request.urlopen(base + path, timeout=120) as response:
        return response.status, response.read()


def _post(base: str, path: str, payload: dict):
    request = urllib.request.Request(
        base + path, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return response.status, response.read()


def _metric(base: str, name: str) -> float:
    """One series' value on ``/v1/metrics`` (0 before its first count)."""
    _, body = _get(base, "/v1/metrics")
    for line in body.decode().splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    return 0.0


def _send_raw(base: str, data: bytes) -> bytes:
    """Send raw bytes on a fresh connection; the reply up to the daemon's close."""
    host, port = base.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=120) as sock:
        sock.sendall(data)
        with sock.makefile("rb") as stream:
            return stream.read()


#: The Ctrl-C leg's drain window: the daemon must be gone within it.
CTRL_C_GRACE_S = 10


def _boot(*extra, **popen_kwargs):
    """Start one small-scale daemon; returns ``(child, base_url or None)``."""
    child = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "serve",
         "--scale", "small", "--seed", "0", "--port", "0", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        **popen_kwargs,
    )
    deadline = time.monotonic() + 600
    while time.monotonic() < deadline:
        line = child.stdout.readline()
        if not line:
            break
        print(f"  daemon: {line.rstrip()}")
        if line.startswith("serving on http://"):
            return child, f"http://127.0.0.1:{int(line.rsplit(':', 1)[1])}"
    child.kill()
    return child, None


def ctrl_c_leg() -> int:
    """SIGINT to the daemon's process group after a worker respawn."""
    child, base = _boot(
        "--workers", "1", "--grace", str(CTRL_C_GRACE_S),
        "--inject", "worker_crash:n=1:match=serve.scenario",
        start_new_session=True,
    )
    if base is None:
        return _fail("Ctrl-C daemon never printed its readiness line")
    pgid = os.getpgid(child.pid)
    failures = 0
    try:
        status, _ = _get(base, "/v1/scenario")  # crash, then retry on a respawn
        if status != 200:
            failures += _fail(f"/v1/scenario after a worker crash: HTTP {status}")
        os.killpg(pgid, signal.SIGINT)
        try:
            out, _ = child.communicate(timeout=CTRL_C_GRACE_S)
        except subprocess.TimeoutExpired:
            return failures + _fail(f"Ctrl-C: no exit within {CTRL_C_GRACE_S}s")
        if child.returncode != 0:
            failures += _fail(f"Ctrl-C drain exited {child.returncode}:\n{out}")
        try:
            os.killpg(pgid, 0)
            failures += _fail("Ctrl-C left processes of the daemon's group behind")
        except ProcessLookupError:
            pass
        if not failures:
            print("  SIGINT to the process group: clean drain, exit 0, group empty")
        return failures
    finally:
        try:
            os.killpg(pgid, signal.SIGKILL)  # whatever a failure left behind
        except ProcessLookupError:
            pass
        if child.poll() is None:
            child.wait(timeout=30)


def main() -> int:
    with open(REPO / "docs" / "serve.schema.json", encoding="utf-8") as handle:
        schema = json.load(handle)

    child, base = _boot("--workers", "2")
    if base is None:
        return _fail("daemon never printed its readiness line")

    failures = 0
    try:
        json_probes = [
            ("healthz", lambda: _get(base, "/v1/healthz")),
            ("scenario", lambda: _get(base, "/v1/scenario")),
            ("resolve", lambda: _post(
                base, "/v1/resolve", {"deployment": "R110", "pairs": [[3, 0], [7, 1]]}
            )),
            ("catchment", lambda: _get(base, "/v1/catchment/2018-K")),
            ("inflation", lambda: _get(base, "/v1/inflation/R110")),
            ("whatif", lambda: _post(
                base, "/v1/whatif", {"deployment": "2018-K", "remove_sites": [0]}
            )),
            ("debug/tracez", lambda: _get(base, "/v1/debug/tracez")),
            ("debug/statusz", lambda: _get(base, "/v1/debug/statusz")),
            ("debug/vars", lambda: _get(base, "/v1/debug/vars")),
        ]
        for endpoint, probe in json_probes:
            status, body = probe()
            if status != 200:
                failures += _fail(f"/v1/{endpoint}: HTTP {status}")
                continue
            violations = validate(json.loads(body), schema)
            for violation in violations:
                failures += _fail(f"/v1/{endpoint}: {violation}")
            if not violations:
                print(f"  /v1/{endpoint}: 200, schema-valid")

        # A client error must come back enveloped too, not as a crash.
        try:
            _post(base, "/v1/resolve", {"deployment": "2018-K", "pairs": []})
            failures += _fail("/v1/resolve accepted an empty batch")
        except urllib.error.HTTPError as error:
            if error.code != 400:
                failures += _fail(f"empty batch: expected 400, got {error.code}")
            elif validate(json.loads(error.read()), schema):
                failures += _fail("400 response is not schema-valid")
            else:
                print("  /v1/resolve (empty batch): 400, schema-valid")

        # A request refused while parsing never reaches the router; it
        # must still be answered, and counted exactly once.
        before = _metric(base, "repro_serve_responses_400_total")
        reply = _send_raw(base, b"GARBAGE\r\n\r\n")
        moved = _metric(base, "repro_serve_responses_400_total") - before
        if not reply.startswith(b"HTTP/1.1 400 "):
            failures += _fail(f"malformed request line: expected 400, got {reply[:40]!r}")
        elif moved != 1:
            failures += _fail(
                f"malformed request line moved repro_serve_responses_400_total by {moved:g}, not 1"
            )
        else:
            print("  malformed request line: 400, counted once")

        # Request-id contract: every response carries X-Request-Id, and
        # a well-formed inbound id is echoed back verbatim.
        request = urllib.request.Request(
            base + "/v1/healthz", headers={"X-Request-Id": "smoke-42"}
        )
        with urllib.request.urlopen(request, timeout=120) as response:
            echoed = response.headers.get("X-Request-Id")
        if echoed != "smoke-42":
            failures += _fail(f"inbound X-Request-Id not honoured (got {echoed!r})")
        with urllib.request.urlopen(base + "/v1/healthz", timeout=120) as response:
            generated = response.headers.get("X-Request-Id")
        if not generated:
            failures += _fail("response carries no X-Request-Id")
        if not failures:
            print("  X-Request-Id: present and honoured")

        # Admission capacity is derived from --workers, not configured.
        _, body = _get(base, "/v1/debug/statusz")
        max_inflight = json.loads(body)["payload"]["max_inflight"]
        if max_inflight != 2:
            failures += _fail(f"statusz max_inflight is {max_inflight}, not --workers 2")
        else:
            print("  /v1/debug/statusz: max_inflight 2 (one slot per worker)")

        status, body = _get(base, "/v1/metrics")
        text = body.decode()
        for needle in (
            "repro_serve_requests_total",
            "repro_serve_resolve_requests_total",
            "repro_serve_resolve_latency_ms_bucket",
            "repro_serve_responses_200_total",
            "repro_serve_deployments_resident",
            "repro_serve_phase_parse_ms_bucket",
            "repro_serve_phase_compute_ms_bucket",
            "repro_serve_inflight",
            "repro_process_rss_bytes",
        ):
            if needle not in text:
                failures += _fail(f"/v1/metrics: missing {needle}")
        print("  /v1/metrics: exposition carries per-endpoint series")
    finally:
        child.send_signal(signal.SIGTERM)
        out, _ = child.communicate(timeout=120)

    if child.returncode != 0:
        failures += _fail(f"SIGTERM drain exited {child.returncode}:\n{out}")
    else:
        print("  SIGTERM: clean drain, exit 0")
    failures += ctrl_c_leg()
    print("serve smoke:", "FAIL" if failures else "OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
