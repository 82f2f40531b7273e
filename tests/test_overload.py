"""Overload control under live load: admission, deadlines, breaker, chaos.

Three layers, mirroring how the machinery is built:

* **Unit** — :class:`~repro.serve.overload.AdmissionQueue`,
  :class:`~repro.serve.overload.CircuitBreaker` (driven by a fake
  clock), :class:`~repro.serve.overload.Deadline`, and
  ``MonitoredPool.call`` (the pool round trip the daemon awaits on its
  event loop: timeout kills, respawns, and workers that never relay a
  signal into the parent) are exercised directly.
* **In-process daemon** — a real ``App`` over :class:`LoopbackDaemon`
  with a monkeypatched slow operation, on the thread path or over a
  real one-worker forked pool, so genuine queue saturation, the
  drain-shed path and the admission queue being the only wait (a busy
  worker is waited for in the queue, never in the pool) are
  deterministic (no timing-dependent bursts).
* **Subprocess daemon** — the actual ``repro serve`` process with
  deterministic fault plans (``queue_flood`` / ``deadline_expire`` /
  ``worker_crash``) proving the wire contract: schema-valid 429/503/504
  envelopes, ``Retry-After``, worker respawn under keep-alive clients,
  and the breaker opening, degrading, and re-closing.

The ``soak``-marked test at the bottom is the acceptance scenario from
the overload milestone: a burst of 4x ``--workers`` keep-alive
clients against a 4-worker daemon with ``worker_crash:p=0.05:seed=1``
— zero hung connections, every answer schema-valid, shed answers carry
``Retry-After``, accepted latencies stay inside the endpoint deadline,
and the breaker provably opens and re-closes.  ``REPRO_SOAK_SECONDS``
stretches the load phase (CI uses 10; the default keeps it quick).
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro import faults
from repro.engine import ArtifactCache
from repro.engine.pool import MonitoredPool
from repro.experiments import Scenario
from repro.obs import MetricsRegistry, metrics
from repro.obs._loopback import LoopbackDaemon
from repro.serve.lifecycle import Lifecycle, ServeConfig
from repro.serve.overload import (
    BREAKER_STATE_VALUES,
    DEFAULT_DEADLINE_MS,
    MAX_DEADLINE_MS,
    AdmissionQueue,
    CircuitBreaker,
    Deadline,
    DeadlineExpired,
    ShedError,
)
from repro.serve.schema import validate_envelope
from repro.serve.server import App
from repro.serve.service import AnycastService, ServiceError, install_service, service_task


@pytest.fixture(scope="module")
def service(scenario):
    return AnycastService(scenario)


# -- Deadline ---------------------------------------------------------------

class TestDeadline:
    def test_per_endpoint_defaults(self):
        for endpoint, budget_ms in DEFAULT_DEADLINE_MS.items():
            deadline = Deadline.for_request(endpoint, {})
            assert deadline is not None
            assert deadline.budget_ms == budget_ms

    def test_light_endpoints_run_unbounded(self):
        assert Deadline.for_request("healthz", {}) is None
        assert Deadline.for_request("metrics", {}) is None

    def test_header_overrides_default(self):
        deadline = Deadline.for_request("resolve", {"x-deadline-ms": "250"})
        assert deadline.budget_ms == 250.0
        assert not deadline.expired
        assert 0.0 < deadline.remaining_s() <= 0.25

    def test_flag_overrides_default(self):
        deadline = Deadline.for_request("resolve", {}, 1_500)
        assert deadline.budget_ms == 1_500.0

    def test_malformed_header_is_a_400(self):
        with pytest.raises(ServiceError) as excinfo:
            Deadline.for_request("resolve", {"x-deadline-ms": "soon"})
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("raw", ["0", "-5", str(MAX_DEADLINE_MS + 1)])
    def test_out_of_range_header_is_a_400(self, raw):
        with pytest.raises(ServiceError) as excinfo:
            Deadline.for_request("resolve", {"x-deadline-ms": raw})
        assert excinfo.value.status == 400

    def test_expire_in_only_pulls_forward(self):
        deadline = Deadline(60_000)
        deadline.expire_in(120.0)  # later than the budget: no-op
        assert not deadline.expired
        deadline.expire_in(0.0)
        assert deadline.expired
        assert deadline.remaining_s() <= 0.0


# -- AdmissionQueue ---------------------------------------------------------

class TestAdmissionQueue:
    def test_admits_queues_and_grants_fifo(self):
        async def scenario():
            queue = AdmissionQueue(1, 4)
            await queue.acquire("resolve")
            assert (queue.inflight, queue.queued) == (1, 0)
            order = []

            async def waiter(tag):
                await queue.acquire("resolve")
                order.append(tag)

            tasks = [asyncio.create_task(waiter(tag)) for tag in ("a", "b")]
            await asyncio.sleep(0)
            assert (queue.inflight, queue.queued) == (1, 2)
            queue.release()
            await asyncio.gather(tasks[0])
            assert order == ["a"]
            queue.release()
            await asyncio.gather(tasks[1])
            assert order == ["a", "b"]
            assert (queue.inflight, queue.queued) == (1, 0)
            queue.release()
            assert queue.inflight == 0

        asyncio.run(scenario())

    def test_tail_policy_sheds_the_newcomer(self):
        async def scenario():
            queue = AdmissionQueue(1, 1)
            await queue.acquire("resolve")
            waiter = asyncio.create_task(queue.acquire("resolve"))
            await asyncio.sleep(0)
            with pytest.raises(ShedError) as excinfo:
                await queue.acquire("resolve")
            assert excinfo.value.status == 429
            assert excinfo.value.reason == "queue_full"
            assert excinfo.value.retry_after_s > 0
            # The queued request is untouched by the shed.
            queue.release()
            await waiter
            assert (queue.inflight, queue.queued) == (1, 0)

        asyncio.run(scenario())

    def test_deadline_expires_while_queued(self):
        async def scenario():
            queue = AdmissionQueue(1, 4)
            await queue.acquire("resolve")
            deadline = Deadline(50)
            with pytest.raises(DeadlineExpired) as excinfo:
                await queue.acquire("resolve", deadline)
            assert excinfo.value.status == 504
            assert excinfo.value.where == "queue"
            assert queue.queued == 0  # the dead waiter was removed
            expired = Deadline(10_000)
            expired.expire_in(0.0)
            with pytest.raises(DeadlineExpired):
                await queue.acquire("resolve", expired)
            queue.release()
            assert (queue.inflight, queue.queued) == (0, 0)

        asyncio.run(scenario())

    def test_drain_sheds_every_waiter(self):
        async def scenario():
            queue = AdmissionQueue(1, 4)
            lifecycle = Lifecycle(grace=1.0)
            lifecycle.on_drain(queue.shed_queued)
            await queue.acquire("resolve")
            waiters = [
                asyncio.create_task(queue.acquire("resolve")) for _ in range(3)
            ]
            await asyncio.sleep(0)
            assert queue.queued == 3
            lifecycle.request_drain("test drain")
            for waiter in waiters:
                with pytest.raises(ShedError) as excinfo:
                    await waiter
                assert excinfo.value.status == 503
                assert excinfo.value.reason == "drain"
                assert excinfo.value.retry_after_s >= 1.0
            # In-flight work is untouched; only the waiting room empties.
            assert (queue.inflight, queue.queued) == (1, 0)
            queue.release()

        asyncio.run(scenario())


# -- CircuitBreaker ---------------------------------------------------------

class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(2, 5.0, clock=clock)
        assert breaker.route() == "pool"
        breaker.record_failure("pool")
        assert breaker.state == "closed"
        breaker.record_failure("pool")
        assert breaker.state == "open"
        assert breaker.route() == "degraded"
        assert metrics.gauge("serve.breaker.state").value == 2

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(2, 5.0, clock=_FakeClock())
        breaker.record_failure("pool")
        breaker.record_success("pool")
        breaker.record_failure("pool")
        assert breaker.state == "closed"

    def test_half_open_probe_success_closes(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(1, 5.0, clock=clock)
        breaker.record_failure("pool")
        assert breaker.state == "open"
        assert breaker.route() == "degraded"
        clock.now += 5.0
        assert breaker.route() == "probe"
        assert breaker.state == "half_open"
        # Only one probe slot: everyone else stays degraded meanwhile.
        assert breaker.route() == "degraded"
        breaker.record_success("probe")
        assert breaker.state == "closed"
        assert breaker.route() == "pool"
        assert metrics.gauge("serve.breaker.state").value == 0

    def test_half_open_probe_failure_reopens(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(1, 5.0, clock=clock)
        breaker.record_failure("pool")
        clock.now += 5.0
        assert breaker.route() == "probe"
        breaker.record_failure("probe", "still dying")
        assert breaker.state == "open"
        assert breaker.route() == "degraded"
        # The cooldown restarts from the failed probe.
        clock.now += 5.0
        assert breaker.route() == "probe"
        breaker.record_success("probe")
        assert breaker.state == "closed"

    def test_stale_failures_do_not_stack_while_open(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(1, 5.0, clock=clock)
        breaker.record_failure("pool")
        opened = metrics.counter("serve.breaker.to_open.total").value
        breaker.record_failure("pool")  # completion from before the trip
        assert breaker.state == "open"
        assert metrics.counter("serve.breaker.to_open.total").value == opened

    def test_transitions_are_counted(self):
        clock = _FakeClock()
        before = metrics.counter("serve.breaker.transitions.total").value
        breaker = CircuitBreaker(1, 5.0, clock=clock)
        breaker.record_failure("pool")
        clock.now += 5.0
        breaker.route()
        breaker.record_success("probe")
        delta = metrics.counter("serve.breaker.transitions.total").value - before
        assert delta == 3  # closed->open->half_open->closed


def _metered_task(attempt=0):
    """A pool task that ships its metrics delta home, as serve tasks do."""
    before = metrics.snapshot()
    metrics.counter("test.metered.total").inc()
    return True, MetricsRegistry.diff(metrics.snapshot(), before)


class TestWorkerMetricsDelta:
    def test_worker_forked_while_open_cannot_reopen_the_gauge(self):
        """A worker forked while the breaker was open inherits state=open;
        its first delta after the breaker re-closes must not carry that
        stale level back into the parent's gauge."""
        clock = _FakeClock()
        breaker = CircuitBreaker(1, 5.0, clock=clock)
        breaker.record_failure("pool")
        assert metrics.gauge("serve.breaker.state").value == BREAKER_STATE_VALUES["open"]
        pool = MonitoredPool(
            1, task=_metered_task, mp_context=multiprocessing.get_context("fork")
        )
        try:
            clock.now += 5.0
            assert breaker.route() == "probe"
            breaker.record_success("probe")
            assert breaker.state == "closed"
            ok, delta, detail = asyncio.run(pool.call((), timeout=60.0))
        finally:
            pool.shutdown()
        assert (ok, detail) == (True, None)
        metrics.merge(delta)
        assert delta["counters"]["test.metered.total"] == 1
        assert metrics.gauge("serve.breaker.state").value == BREAKER_STATE_VALUES["closed"]


# -- MonitoredPool.call ------------------------------------------------------

def _sleepy_task(duration, attempt=0):
    time.sleep(duration)
    return True, {"slept": duration}


def _worker_pid(pool):
    (worker,) = pool._workers
    return worker.process.pid


def _pool_counts(before):
    """(abandoned, respawns) since the ``before`` metrics snapshot."""
    delta = metrics.diff(metrics.snapshot(), before)
    respawns = delta["histograms"].get("engine.pool.respawn_ms", {})
    return (delta["counters"].get("engine.pool.abandoned.total", 0),
            respawns.get("count", 0))


class TestPoolAbandon:
    def test_abandon_running_task_respawns_the_worker(self):
        before = metrics.snapshot()
        pool = MonitoredPool(1, task=_sleepy_task)

        async def scenario():
            started = time.monotonic()
            with pytest.raises(TimeoutError):
                await pool.call((30.0,), timeout=0.5)
            assert time.monotonic() - started < 10.0
            # The replacement worker serves the next request: the slot
            # came back long before the 30s sleep would have finished.
            return await pool.call((0.01,), timeout=60.0)

        try:
            stale = _worker_pid(pool)
            ok, payload, detail = asyncio.run(scenario())
            assert _worker_pid(pool) != stale
        finally:
            pool.shutdown()
        assert (ok, detail) == (True, None)
        assert payload == {"slept": 0.01}
        abandoned, respawns = _pool_counts(before)
        assert abandoned == 1
        assert respawns >= 1

    def test_abandon_is_a_noop_on_completed_tasks(self):
        before = metrics.snapshot()
        pool = MonitoredPool(1, task=_sleepy_task)
        try:
            pid = _worker_pid(pool)
            ok, payload, detail = asyncio.run(pool.call((0.0,), timeout=60.0))
            assert _worker_pid(pool) == pid
        finally:
            pool.shutdown()
        assert (ok, payload, detail) == (True, {"slept": 0.0}, None)
        assert _pool_counts(before) == (0, 0)

    def test_worker_found_dead_at_send_is_replaced(self):
        before = metrics.snapshot()
        pool = MonitoredPool(1, task=_sleepy_task)
        try:
            (worker,) = pool._workers
            worker.process.kill()
            worker.process.join(timeout=30.0)
            assert not worker.process.is_alive()
            ok, payload, detail = asyncio.run(pool.call((0.0,), timeout=60.0))
        finally:
            pool.shutdown()
        assert (ok, payload, detail) == (True, {"slept": 0.0}, None)
        assert _pool_counts(before) == (0, 1)  # resent to a respawn, not abandoned


class TestPoolSignals:
    """Workers inherit their parent's signal handlers; they must not
    ignore the pool's kills, nor relay signals into the parent."""

    def test_timeout_kill_beats_an_ignoring_sigterm_handler(self):
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
        try:
            pool = MonitoredPool(
                1, task=_sleepy_task, mp_context=multiprocessing.get_context("fork")
            )
            try:
                started = time.monotonic()
                outcomes = pool.run([(30.0,)], timeout=0.3, retries=0)
                elapsed = time.monotonic() - started
            finally:
                pool.shutdown()
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert outcomes[0].status == "timeout"
        assert elapsed < 3.0, f"killing a hung worker took {elapsed:.1f}s"

    def test_worker_forked_under_a_loop_does_not_relay_signals(self):
        fired = []

        async def scenario():
            loop = asyncio.get_running_loop()
            loop.add_signal_handler(signal.SIGINT, fired.append, "SIGINT")
            try:
                pool = MonitoredPool(
                    1, task=_sleepy_task, mp_context=multiprocessing.get_context("fork")
                )
                try:
                    answer = await pool.call((0.0,), timeout=60.0)
                    os.kill(_worker_pid(pool), signal.SIGINT)
                    await asyncio.sleep(0.5)
                finally:
                    pool.shutdown()
            finally:
                loop.remove_signal_handler(signal.SIGINT)
            return answer

        ok, _, detail = asyncio.run(scenario())
        assert (ok, detail) == (True, None)
        assert fired == [], "the worker's SIGINT reached the parent's loop"


# -- in-process daemon: genuine saturation, deterministic -------------------

def _fetch(port, path, *, method="GET", payload=None, headers=None, timeout=60):
    """One keep-alive-capable request; returns (status, headers, body, secs)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    data = None if payload is None else json.dumps(payload)
    try:
        started = time.monotonic()
        connection.request(method, path, body=data, headers=headers or {})
        response = connection.getresponse()
        body = response.read()
        elapsed = time.monotonic() - started
        return response.status, {k.lower(): v for k, v in response.getheaders()}, body, elapsed
    finally:
        connection.close()


def _slow_service(service, monkeypatch, op, delay_s):
    """Make one operation genuinely slow on the thread path."""
    real = service.execute_safe

    def slowed(requested_op, kwargs):
        if requested_op == op:
            time.sleep(delay_s)
        return real(requested_op, kwargs)

    monkeypatch.setattr(service, "execute_safe", slowed)


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert predicate(), "condition not reached within the timeout"


def _hold_the_slot(app, port, results):
    """Start a (slowed) catchment read; return once it holds the only slot."""
    holder = threading.Thread(
        target=lambda: results.update(hold=_fetch(port, "/v1/catchment/2018-K"))
    )
    holder.start()
    _wait_until(lambda: app.admission.inflight == 1)
    return holder


class TestSaturationInProcess:
    def test_full_queue_sheds_429_immediately(self, service, monkeypatch):
        _slow_service(service, monkeypatch, "catchment", 1.5)
        app = App(service, ServeConfig(workers=0, max_queue=0))
        results = {}
        with LoopbackDaemon(app) as port:
            holder = _hold_the_slot(app, port, results)
            status, headers, body, elapsed = _fetch(port, "/v1/inflation/2018-K")
            holder.join(timeout=30.0)
        assert status == 429
        assert elapsed < 1.0, "shed answers must not wait for the slot"
        assert headers["retry-after"] == "1"
        wrapped = json.loads(body)
        assert validate_envelope(wrapped) == []
        error = wrapped["payload"]["error"]
        assert error["reason"] == "queue_full"
        assert error["retry_after_s"] == 1.0
        assert results["hold"][0] == 200  # the admitted request was untouched

    def test_drain_sheds_queued_requests_fast(self, service, monkeypatch):
        _slow_service(service, monkeypatch, "catchment", 1.5)
        before = metrics.counter("serve.shed.drain.total").value
        app = App(service, ServeConfig(workers=0, max_queue=4, grace=10))
        results = {}
        daemon = LoopbackDaemon(app)
        with daemon as port:
            holder = _hold_the_slot(app, port, results)
            queued = threading.Thread(
                target=lambda: results.update(queued=_fetch(port, "/v1/inflation/2018-K"))
            )
            queued.start()
            _wait_until(lambda: app.admission.queued == 1)
            daemon._loop.call_soon_threadsafe(app.lifecycle.request_drain, "test drain")
            queued.join(timeout=10.0)
            holder.join(timeout=30.0)
        status, headers, body, elapsed = results["queued"]
        assert status == 503
        assert elapsed < 1.2, "queued requests must not sit out the grace window"
        assert headers["retry-after"] == "5"
        wrapped = json.loads(body)
        assert validate_envelope(wrapped) == []
        assert wrapped["payload"]["error"]["reason"] == "drain"
        assert results["hold"][0] == 200  # in-flight work rode out the drain
        assert metrics.counter("serve.shed.drain.total").value - before >= 1

    def test_compute_phase_of_a_query_that_expires_in_compute(self, service, monkeypatch):
        # The phase span closes on the 504 too, so the record keeps it.
        _slow_service(service, monkeypatch, "catchment", 0.6)
        app = App(service, ServeConfig(workers=0))
        with LoopbackDaemon(app) as port:
            status, _, body, _ = _fetch(
                port, "/v1/catchment/2018-K",
                headers={"X-Deadline-Ms": "200", "X-Request-Id": "late"},
            )
        assert status == 504
        _assert_error_envelope(json.loads(body), 504, deadline_ms=200.0, where="compute")
        (record,) = [r for r in app.telemetry.recent() if r["trace_id"] == "late"]
        phases = record["phases"]
        assert set(phases) == {"parse", "queue", "compute", "serialize"}, phases
        assert phases["compute"] >= 150.0, phases

    def test_expired_thread_keeps_its_slot_until_it_returns(self, service, monkeypatch):
        # A thread cannot be killed: past its deadline the client gets a
        # 504, and the computation it leaves running keeps the only slot.
        real = service.execute_safe
        lock = threading.Lock()
        load = {"running": 0, "peak": 0}

        def slowed(op, kwargs):
            if op != "catchment":
                return real(op, kwargs)
            with lock:
                load["running"] += 1
                load["peak"] = max(load["peak"], load["running"])
            try:
                time.sleep(1.0)
                return real(op, kwargs)
            finally:
                with lock:
                    load["running"] -= 1

        monkeypatch.setattr(service, "execute_safe", slowed)
        app = App(service, ServeConfig(workers=0, max_queue=0))
        with LoopbackDaemon(app) as port:
            status, _, body, elapsed = _fetch(
                port, "/v1/catchment/2018-K", headers={"X-Deadline-Ms": "150"}
            )
            assert status == 504
            assert elapsed < 0.9, "the 504 must not wait for the thread"
            _assert_error_envelope(json.loads(body), 504, deadline_ms=150.0, where="compute")
            status, _, body, _ = _fetch(port, "/v1/catchment/2018-K")
            assert status == 429, "admitted while the expired thread still computes"
            _assert_error_envelope(json.loads(body), 429, reason="queue_full")
            _wait_until(lambda: load["running"] == 0 and app.admission.inflight == 0)
            status, _, _, _ = _fetch(port, "/v1/catchment/2018-K")
        assert status == 200
        assert load["peak"] == 1


@contextlib.contextmanager
def _one_worker_daemon(service, config):
    """An ``App`` over a real one-worker forked pool, behind LoopbackDaemon.

    The pool forks here, so a service slowed before the call is slow in
    the worker too.  Yields ``(app, daemon, port)``.
    """
    install_service(service)
    pool = MonitoredPool(
        1, task=service_task, mp_context=multiprocessing.get_context("fork")
    )
    try:
        app = App(service, config, pool)
        daemon = LoopbackDaemon(app)
        with daemon as port:
            yield app, daemon, port
    finally:
        pool.shutdown()
        install_service(None)


class TestOneWorkerPoolInProcess:
    """A query waits for a busy worker in the admission queue, nowhere else."""

    def test_budget_spent_waiting_for_a_busy_worker_is_queue_time(
            self, service, monkeypatch):
        _slow_service(service, monkeypatch, "catchment", 1.5)
        config = ServeConfig(workers=1, breaker_threshold=1)
        results = {}
        with _one_worker_daemon(service, config) as (app, _daemon, port):
            holder = _hold_the_slot(app, port, results)
            status, _, body, _ = _fetch(
                port, "/v1/inflation/2018-K", headers={"X-Deadline-Ms": "100"}
            )
            holder.join(timeout=30.0)
        assert status == 504
        _assert_error_envelope(json.loads(body), 504, deadline_ms=100.0, where="queue")
        # Waiting for a healthy worker is no pool failure.
        assert app.breaker.state == "closed"
        assert results["hold"][0] == 200

    def test_drain_sheds_a_query_waiting_for_a_busy_worker(self, service, monkeypatch):
        _slow_service(service, monkeypatch, "catchment", 1.5)
        config = ServeConfig(workers=1, grace=10)
        results = {}
        with _one_worker_daemon(service, config) as (app, daemon, port):
            holder = _hold_the_slot(app, port, results)
            waiter = threading.Thread(
                target=lambda: results.update(waiter=_fetch(port, "/v1/inflation/2018-K"))
            )
            waiter.start()
            _wait_until(lambda: app.lifecycle.inflight == 2)
            daemon._loop.call_soon_threadsafe(app.lifecycle.request_drain, "test drain")
            waiter.join(timeout=10.0)
            holder.join(timeout=30.0)
        status, headers, body, elapsed = results["waiter"]
        assert status == 503
        assert elapsed < 1.2, "a query waiting for a worker must not sit out the drain"
        assert headers["retry-after"] == "5"
        _assert_error_envelope(json.loads(body), 503, reason="drain")
        assert results["hold"][0] == 200

    def test_queue_phase_covers_the_wait_for_a_busy_worker(self, service, monkeypatch):
        _slow_service(service, monkeypatch, "catchment", 1.5)
        results = {}
        with _one_worker_daemon(service, ServeConfig(workers=1)) as (app, _daemon, port):
            holder = _hold_the_slot(app, port, results)
            status, _, _, _ = _fetch(
                port, "/v1/inflation/2018-K", headers={"X-Request-Id": "waiter"}
            )
            holder.join(timeout=30.0)
        assert status == 200
        (record,) = [r for r in app.telemetry.recent() if r["trace_id"] == "waiter"]
        phases = record["phases"]
        assert phases["queue"] > 500.0, phases
        assert phases["compute"] < phases["queue"], phases

    def test_worker_queries_load_no_stage(self, scenario, tmp_path):
        """A worker answers from the resident deployments alone.

        A fresh scenario over a filled cache loads only the stages the
        service holds; a forked worker's resolve, add-region what-if and
        ``/v1/scenario`` must not materialise another (``internet``
        above all: every worker would unpickle its own copy).
        """
        cache = ArtifactCache(root=tmp_path)
        fresh = Scenario(scale="small", seed=0, cache=cache)
        for name in ("internet", "user_base", "letters_2018", "letters_2020", "cdn"):
            cache.store(fresh.stage_key(name), getattr(scenario, name))
        service = AnycastService(fresh)
        with _one_worker_daemon(service, ServeConfig(workers=1)) as (_app, _daemon, port):

            def stages_built():
                _, _, body, _ = _fetch(port, "/v1/metrics")
                exposition = _parse_prometheus(body.decode())
                return exposition.get("repro_engine_stages_built_total", 0.0)

            before = stages_built()
            for method, path, payload in (
                ("POST", "/v1/resolve", {"deployment": "2018-K", "pairs": [[3, 0]]}),
                ("POST", "/v1/whatif", {"deployment": "2018-K", "add_regions": [1]}),
                ("GET", "/v1/scenario", None),
            ):
                status, _, _, _ = _fetch(port, path, method=method, payload=payload)
                assert status == 200, path
            assert stages_built() == before

    def test_late_resolve_is_a_compute_expiry_not_a_pool_failure(
            self, service, monkeypatch):
        # A resolve answers on the loop: one that finishes past its
        # budget has no worker to kill and nothing to tell the breaker.
        _slow_service(service, monkeypatch, "resolve", 0.3)
        expired = metrics.counter("serve.deadline.compute.expired.total")
        abandoned = metrics.counter("engine.pool.abandoned.total")
        before = (expired.value, abandoned.value)
        config = ServeConfig(workers=1, breaker_threshold=1)
        with _one_worker_daemon(service, config) as (app, _daemon, port):
            status, _, body, _ = _fetch(
                port, "/v1/resolve", method="POST",
                payload={"deployment": "2018-K", "pairs": [[3, 0]]},
                headers={"X-Deadline-Ms": "100"},
            )
        assert status == 504
        _assert_error_envelope(json.loads(body), 504, deadline_ms=100.0, where="compute")
        assert (expired.value, abandoned.value) == (before[0] + 1, before[1])
        assert app.breaker.state == "closed"

    def test_out_of_range_asn_is_a_client_error(self, service):
        config = ServeConfig(workers=1, breaker_threshold=1)
        with _one_worker_daemon(service, config) as (app, _daemon, port):
            status, _, body, _ = _fetch(
                port, "/v1/resolve", method="POST",
                payload={"deployment": "2018-K", "pairs": [[2**63, 0]]},
            )
        assert status == 400
        _assert_error_envelope(json.loads(body), 400)
        assert "outside [0, 2**32)" in json.loads(body)["payload"]["error"]["message"]
        # A client's bad input is no pool failure.
        assert app.breaker.state == "closed"

    def test_expired_query_does_not_hold_the_half_open_probe(self, service):
        config = ServeConfig(workers=1, breaker_threshold=1, breaker_cooldown=0)
        faults.install(faults.FaultPlan.from_string(
            "deadline_expire:n=1:match=serve.scenario"
        ))
        try:
            with _one_worker_daemon(service, config) as (app, _daemon, port):
                app.breaker.record_failure("pool")
                assert app.breaker.state == "open"
                status, _, body, _ = _fetch(port, "/v1/scenario")
        finally:
            faults.install(None)
        assert status == 504
        _assert_error_envelope(json.loads(body), 504, where="compute")
        # The expired query never took the probe slot, so the next
        # query is the probe rather than degraded until a restart.
        assert app.breaker.route() == "probe"


# -- the real daemon under injected faults ----------------------------------

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


class _Daemon:
    """One throwaway ``repro serve`` subprocess per chaos scenario."""

    def __init__(self, *extra):
        self.child = subprocess.Popen(
            _serve_argv(*extra), env=_serve_env(),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            self.port = _await_port(self.child)
        except BaseException:
            self.child.kill()
            self.child.wait(timeout=30)
            raise
        self.base = f"http://127.0.0.1:{self.port}"

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.child.poll() is None:
            self.child.send_signal(signal.SIGTERM)
        out, _ = self.child.communicate(timeout=120)
        assert self.child.returncode == 0, (
            f"daemon exited {self.child.returncode}:\n{out}"
        )

    def exchange(self, method, path, *, headers=None, payload=None, timeout=120):
        """Returns (status, headers, envelope) without raising on 4xx/5xx."""
        body = None if payload is None else json.dumps(payload).encode()
        request = urllib.request.Request(
            self.base + path, data=body, method=method,
            headers={"Content-Type": "application/json", **(headers or {})},
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.status, dict(response.headers), json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, dict(error.headers), json.loads(error.read())

    def counters(self):
        _, _, wrapped = self.exchange("GET", "/v1/debug/vars")
        return wrapped["payload"]["metrics"]["counters"]

    def breaker_state(self):
        _, _, wrapped = self.exchange("GET", "/v1/healthz")
        return wrapped["payload"]["breaker"]


def _assert_error_envelope(wrapped, status, **expected):
    assert validate_envelope(wrapped) == []
    error = wrapped["payload"]["error"]
    assert error["status"] == status
    for key, value in expected.items():
        assert error.get(key) == value, f"error[{key!r}]: {error}"


class TestChaosDaemon:
    def test_queue_flood_sheds_with_contract(self, scenario):
        with _Daemon("--workers", "0",
                     "--inject", "queue_flood:match=inflation") as daemon:
            status, headers, wrapped = daemon.exchange("GET", "/v1/inflation/2018-K")
            assert status == 429
            assert headers["Retry-After"] == "1"
            _assert_error_envelope(wrapped, 429, reason="queue_full",
                                   retry_after_s=1.0)
            # Only the matched endpoint floods; the daemon stays healthy.
            status, _, wrapped = daemon.exchange("GET", "/v1/catchment/2018-K")
            assert status == 200
            counters = daemon.counters()
            assert counters["serve.shed.total"] >= 1
            assert counters["serve.shed.queue_full.total"] >= 1

    def test_deadlines_end_to_end(self, scenario):
        with _Daemon("--workers", "0",
                     "--inject", "deadline_expire:match=serve.resolve") as daemon:
            # The injected expiry clamps the default 10s resolve budget
            # to zero at compute dispatch: a deterministic 504.
            status, _, wrapped = daemon.exchange(
                "POST", "/v1/resolve",
                payload={"deployment": "2018-K", "pairs": [[3, 0]]},
            )
            assert status == 504
            _assert_error_envelope(
                wrapped, 504,
                deadline_ms=float(DEFAULT_DEADLINE_MS["resolve"]), where="compute",
            )
            # A genuine 1ms budget via the header expires too (wherever
            # the clock runs out first).
            status, _, wrapped = daemon.exchange(
                "POST", "/v1/whatif", headers={"X-Deadline-Ms": "1"},
                payload={"deployment": "2018-K", "remove_sites": [0]},
            )
            assert status == 504
            assert validate_envelope(wrapped) == []
            error = wrapped["payload"]["error"]
            assert error["deadline_ms"] == 1.0
            assert error["where"] in ("queue", "compute")
            # Budget asks that are nonsense get told so, not clamped.
            for bad in ("soon", "0", str(MAX_DEADLINE_MS + 1)):
                status, _, wrapped = daemon.exchange(
                    "GET", "/v1/catchment/2018-K",
                    headers={"X-Deadline-Ms": bad},
                )
                assert status == 400
                assert validate_envelope(wrapped) == []
            # Unmatched endpoints never saw a fault.
            status, _, _ = daemon.exchange("GET", "/v1/catchment/2018-K")
            assert status == 200
            counters = daemon.counters()
            assert counters["serve.deadline.expired.total"] >= 2
            assert counters["serve.deadline.compute.expired.total"] >= 1

    def test_worker_crash_is_retried_on_a_live_connection(self, scenario):
        with _Daemon("--workers", "2",
                     "--inject", "worker_crash:n=1:match=serve.catchment") as daemon:
            connection = http.client.HTTPConnection("127.0.0.1", daemon.port,
                                                    timeout=120)
            try:
                # First pool submission (seq 0): the worker is shot
                # mid-request.  The daemon respawns it and retries; the
                # client sees a plain 200 on the same connection.
                connection.request("GET", "/v1/catchment/2018-K")
                response = connection.getresponse()
                wrapped = json.loads(response.read())
                assert response.status == 200
                assert validate_envelope(wrapped) == []
                assert wrapped["payload"]["deployment"] == "2018-K"
                # The keep-alive connection survived the crash: reuse it.
                body = json.dumps({"deployment": "2018-K", "pairs": [[3, 0]]})
                connection.request("POST", "/v1/resolve", body=body,
                                   headers={"Content-Type": "application/json"})
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["payload"]["rows"] == 1
            finally:
                connection.close()
            counters = daemon.counters()
            assert counters["engine.worker_crashes.total"] == 1
            assert counters["serve.worker_lost.total"] == 1
            assert counters["serve.retries.total"] == 1
            assert daemon.breaker_state() == "closed"  # one blip, no trip

    def test_deadline_kill_of_a_respawned_worker_does_not_drain(self, scenario):
        # A worker respawned while the daemon serves is forked under the
        # daemon's signal handlers; killing it at a deadline must not
        # read as a SIGTERM to the daemon.
        with _Daemon("--workers", "1",
                     "--inject", "worker_crash:n=1:match=serve.scenario",
                     "--inject",
                     "deadline_expire:n=1:s=0.001:match=serve.whatif") as daemon:
            status, _, _ = daemon.exchange("GET", "/v1/scenario")
            assert status == 200  # crash, then a retry on a respawned worker
            # A what-if re-propagates for milliseconds: the 1 ms budget
            # runs out while the respawned worker computes, so it is killed.
            whatif = {"deployment": "2018-K", "remove_sites": [0]}
            status, _, wrapped = daemon.exchange("POST", "/v1/whatif", payload=whatif)
            assert status == 504
            _assert_error_envelope(wrapped, 504, where="compute")
            _, _, wrapped = daemon.exchange("GET", "/v1/healthz")
            assert wrapped["payload"]["status"] == "ok"
            started = time.monotonic()
            status, _, _ = daemon.exchange("POST", "/v1/whatif", payload=whatif)
            assert status == 200
            assert time.monotonic() - started < 4.0
            assert daemon.counters()["engine.pool.abandoned.total"] == 1

    def test_resolves_never_reach_a_worker(self, scenario):
        # Every pooled resolve would crash its worker, and the scenario
        # crashes twice (a retry included) to open the breaker.
        with _Daemon("--workers", "2",
                     "--breaker-threshold", "1", "--breaker-cooldown", "600",
                     "--inject", "worker_crash:match=serve.resolve",
                     "--inject", "worker_crash:n=2:match=serve.scenario") as daemon:
            resolve = {"deployment": "2018-K", "pairs": [[3, 0], [7, 1]]}
            for _ in range(3):
                status, _, wrapped = daemon.exchange("POST", "/v1/resolve", payload=resolve)
                assert status == 200, wrapped
                assert wrapped["payload"]["rows"] == 2
            counters = daemon.counters()
            assert counters.get("engine.worker_crashes.total", 0) == 0
            assert daemon.breaker_state() == "closed"
            status, _, wrapped = daemon.exchange("GET", "/v1/scenario")
            assert status == 503
            _assert_error_envelope(wrapped, 503, reason="worker_lost")
            assert daemon.breaker_state() == "open"
            degraded = daemon.counters().get("serve.degraded.total", 0)
            for _ in range(3):
                status, _, wrapped = daemon.exchange("POST", "/v1/resolve", payload=resolve)
                assert status == 200, wrapped
            counters = daemon.counters()
            assert counters.get("serve.degraded.total", 0) == degraded
            assert counters["engine.worker_crashes.total"] == 2  # the scenario's only
            assert daemon.breaker_state() == "open"

    def test_breaker_browns_out_instead_of_blacking_out(self, scenario):
        # Threshold 1 and a prohibitive cooldown: the first crash opens
        # the breaker and every endpoint must keep answering in-process.
        with _Daemon("--workers", "2",
                     "--breaker-threshold", "1", "--breaker-cooldown", "600",
                     "--inject", "worker_crash:n=2:match=serve.scenario") as daemon:
            status, headers, wrapped = daemon.exchange("GET", "/v1/scenario")
            assert status == 503  # crash, retry, crash again: workers lost
            assert "Retry-After" in headers
            _assert_error_envelope(wrapped, 503, reason="worker_lost")
            assert daemon.breaker_state() == "open"
            # Degraded serving: warm in-process kernels answer reads...
            for path in ("/v1/scenario", "/v1/catchment/2018-K",
                         "/v1/inflation/2018-K"):
                status, _, wrapped = daemon.exchange("GET", path)
                assert status == 200, f"{path} failed degraded: {wrapped}"
                assert validate_envelope(wrapped) == []
            # ...and what-if falls back to the full-rebuild oracle.
            status, _, wrapped = daemon.exchange(
                "POST", "/v1/whatif",
                payload={"deployment": "2018-K", "remove_sites": [0]},
            )
            assert status == 200
            assert validate_envelope(wrapped) == []
            counters = daemon.counters()
            assert counters["serve.degraded.total"] >= 4
            assert counters["serve.whatif.degraded_rebuilds.total"] >= 1
            assert counters["serve.breaker.to_open.total"] == 1
            assert daemon.breaker_state() == "open"

    def test_breaker_recovers_through_a_probe(self, scenario):
        with _Daemon("--workers", "2",
                     "--breaker-threshold", "1", "--breaker-cooldown", "1",
                     "--inject", "worker_crash:n=2:match=serve.inflation") as daemon:
            status, _, wrapped = daemon.exchange("GET", "/v1/inflation/2018-K")
            assert status == 503
            _assert_error_envelope(wrapped, 503, reason="worker_lost")
            assert daemon.breaker_state() == "open"
            time.sleep(1.3)  # ride out the cooldown
            # The next request is the half-open probe; the fault plan is
            # exhausted (n=2 consumed seq 0 and 1), so it succeeds and
            # the breaker closes.
            status, _, wrapped = daemon.exchange("GET", "/v1/inflation/2018-K")
            assert status == 200
            assert validate_envelope(wrapped) == []
            assert daemon.breaker_state() == "closed"
            counters = daemon.counters()
            # closed->open, open->half_open, half_open->closed
            assert counters["serve.breaker.transitions.total"] == 3
            assert counters["serve.breaker.to_open.total"] == 1
            assert counters["serve.breaker.to_half_open.total"] == 1
            assert counters["serve.breaker.to_closed.total"] == 1


# -- the acceptance soak: chaos under a live burst --------------------------

def _parse_prometheus(text):
    values = {}
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name, _, value = line.rpartition(" ")
        try:
            values[name] = float(value)
        except ValueError:
            continue
    return values


class _BurstClient(threading.Thread):
    """One keep-alive client hammering the daemon until told to stop."""

    _PLAN = (
        ("GET", "/v1/catchment/2018-K", None),
        ("GET", "/v1/inflation/2018-K", None),
        ("POST", "/v1/resolve", {"deployment": "2018-K", "pairs": [[3, 0], [5, 1]]}),
        ("GET", "/v1/scenario", None),
    )

    def __init__(self, index, port, stop):
        super().__init__(name=f"burst-{index}", daemon=True)
        self.index = index
        self.port = port
        self.stop = stop
        self.outcomes = []  #: (endpoint, status, headers, envelope, secs)
        self.transport_errors = []

    def run(self):
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        step = self.index  # stagger the request mix across clients
        try:
            while not self.stop.is_set():
                method, path, payload = self._PLAN[step % len(self._PLAN)]
                step += 1
                body = None if payload is None else json.dumps(payload)
                started = time.monotonic()
                try:
                    connection.request(
                        method, path, body=body,
                        headers={"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    raw = response.read()
                    elapsed = time.monotonic() - started
                    headers = {k.lower(): v for k, v in response.getheaders()}
                    self.outcomes.append(
                        (path.split("/")[2], response.status, headers,
                         json.loads(raw), elapsed)
                    )
                except Exception as error:  # noqa: BLE001 - tallied, then asserted on
                    self.transport_errors.append(f"{type(error).__name__}: {error}")
                    connection.close()
                    connection = http.client.HTTPConnection(
                        "127.0.0.1", self.port, timeout=60
                    )
        finally:
            connection.close()


@pytest.mark.soak
def test_overload_soak_chaos_under_burst(scenario):
    """The milestone acceptance drill: burst + crashes, nothing wedges.

    4x ``--workers`` keep-alive clients against a 4-worker daemon
    whose pool crashes on ~5% of submissions.  Every connection must
    resolve (no hangs, no tears), every answer must be schema-valid,
    every shed must carry the retry contract, accepted latencies must
    respect the endpoint deadline, and the breaker must both open under
    the crash storm and re-close after it.
    """
    duration_s = float(os.environ.get("REPRO_SOAK_SECONDS", "3"))
    workers = 4
    with _Daemon("--workers", str(workers), "--max-queue", "2",
                 "--breaker-threshold", "1", "--breaker-cooldown", "0.5",
                 "--grace", "30",
                 "--inject", "worker_crash:p=0.05:seed=1") as daemon:
        stop = threading.Event()
        clients = [
            _BurstClient(index, daemon.port, stop)
            for index in range(4 * workers)
        ]
        for client in clients:
            client.start()
        time.sleep(duration_s)
        stop.set()
        for client in clients:
            client.join(timeout=120.0)
        hung = [client.name for client in clients if client.is_alive()]
        assert not hung, f"clients never got an answer: {hung}"

        outcomes = [outcome for client in clients for outcome in client.outcomes]
        errors = [error for client in clients for error in client.transport_errors]
        assert not errors, f"torn/hung connections: {errors[:5]}"
        assert len(outcomes) >= len(clients), "the burst barely ran"

        by_status: dict[int, int] = {}
        for endpoint, status, headers, wrapped, elapsed in outcomes:
            by_status[status] = by_status.get(status, 0) + 1
            assert validate_envelope(wrapped) == [], f"malformed: {wrapped}"
            assert status in (200, 429, 503, 504), f"unexpected {status}: {wrapped}"
            if status in (429, 503):
                assert "retry-after" in headers, f"shed without Retry-After: {wrapped}"
                assert "reason" in wrapped["payload"]["error"]
            if status == 504:
                assert wrapped["payload"]["error"]["where"] in ("queue", "compute")
        assert by_status.get(200, 0) > 0, f"no request ever succeeded: {by_status}"

        # Accepted answers stayed inside their endpoint budget (p99,
        # because a tail answer can land just as its deadline expires).
        for endpoint, budget_ms in DEFAULT_DEADLINE_MS.items():
            latencies = sorted(
                elapsed for point, status, _, _, elapsed in outcomes
                if point == endpoint and status == 200
            )
            if not latencies:
                continue
            p99 = latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))]
            assert p99 <= budget_ms / 1000.0, (
                f"{endpoint} p99 {p99:.3f}s blew its {budget_ms}ms budget"
            )

        # The crash storm actually happened, and self-healing followed:
        # workers respawned and the breaker opened.
        counters = daemon.counters()
        assert counters.get("engine.worker_crashes.total", 0) >= 1
        assert counters.get("serve.breaker.to_open.total", 0) >= 1

        # Recovery: once the storm quiets, probes re-close the breaker.
        deadline = time.monotonic() + 30.0
        while daemon.breaker_state() != "closed" and time.monotonic() < deadline:
            time.sleep(0.3)
            daemon.exchange("GET", "/v1/catchment/2018-K")
        assert daemon.breaker_state() == "closed", "breaker never re-closed"

        with urllib.request.urlopen(daemon.base + "/v1/metrics", timeout=120) as response:
            assert response.status == 200
            metrics_text = response.read().decode()
        exposition = _parse_prometheus(metrics_text)
        assert exposition.get("repro_serve_breaker_transitions_total", 0) >= 2
        assert exposition.get("repro_serve_breaker_state") == 0.0
        shed = exposition.get("repro_serve_shed_total", 0)
        expired = exposition.get("repro_serve_deadline_expired_total", 0)
        retried = exposition.get("repro_serve_retries_total", 0)
        print(f"soak: {len(outcomes)} answers {by_status}, "
              f"{shed:.0f} shed, {expired:.0f} expired, {retried:.0f} retried")
