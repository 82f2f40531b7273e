"""The asyncio HTTP/1.1 daemon behind ``repro serve``.

Hand-rolled on :func:`asyncio.start_server` — the service speaks just
enough HTTP for JSON clients and Prometheus scrapers (request line,
headers, ``Content-Length`` bodies, keep-alive), with zero dependencies
beyond the stdlib.

Concurrency model: parsing and light endpoints run on the event loop,
and so does every ``/v1/resolve``: a batch lookup in the warm kernels
costs less than the two process hops of a pool round trip.  The other
queries (scenario, catchment, inflation, what-if) offload through
:meth:`App.execute` — either to a forked
:class:`~repro.engine.pool.MonitoredPool` worker (``--workers N``, the
default), whose answer the loop itself awaits with
:meth:`~repro.engine.pool.MonitoredPool.call` (so the daemon is one
thread), or to a thread (``--workers 0``).  The
:mod:`repro.serve.overload` admission queue in front of every query,
resolve included, is the only place a query waits: it grants exactly
the compute capacity (``--workers`` slots, one with ``--workers 0``),
``--max-queue`` more wait, and the rest are shed with 429 (so a burst
costs a bounded amount of memory and every refused client hears so
immediately).  Each request carries a deadline (per-endpoint default
or ``X-Deadline-Ms``); expiry answers 504, a worker still running the
task is killed and respawned to reclaim the slot, and a thread still
running it keeps the slot until it returns.  A circuit breaker around
the pool trips on consecutive worker failures and routes the pooled
queries, through the same slots, to the warm in-process kernels until
half-open probes prove the pool healthy again; resolves never touch
the pool or the breaker.  Workers fork *after* the service warm-up, so
every worker shares the resident kernels copy-on-write.

Request telemetry: every request gets a ``trace_id`` (honouring an
inbound ``X-Request-Id``), echoed back as ``X-Request-Id`` and bound to
the context so structured log lines carry it.  Each request is one
``serve.request`` span with ``serve.parse`` / ``serve.queue`` /
``serve.compute`` / ``serve.serialize`` children, and that span is its
only record: when it closes,
:class:`~repro.serve.telemetry.RequestTelemetry` derives the access
record (``--access-log``, ``/v1/debug/tracez``) and the request
metrics from it.  With ``--trace`` the whole daemon runs inside
:meth:`~repro.obs.trace.Tracer.capture`, so forked workers shard spans
re-rooted under the request's compute frame and the merged trace
telescopes across processes.  ``/v1/metrics`` and ``/v1/debug/vars``
set the ``process.*``, ``serve.inflight`` and ``serve.admission.*``
gauges when they are scraped.

Shutdown (see :mod:`repro.serve.lifecycle`): SIGTERM closes the
listener, in-flight requests get ``--grace`` seconds, keep-alive
stragglers get 503, and the exit code is 0 (clean drain) or 4
(grace expired) — the batch CLI's preemption semantics.
"""

from __future__ import annotations

import asyncio
import contextvars
import sys
import uuid

from .. import faults
from ..engine import ArtifactCache, MonitoredPool
from ..obs import current_trace_id, get_logger, metrics, set_trace_id, trace
from .handlers import Request, Response, error_response, handle
from .lifecycle import EXIT_IO, EXIT_PREEMPTED, EXIT_USAGE, Lifecycle, ServeConfig
from .overload import (
    AdmissionQueue,
    CircuitBreaker,
    Deadline,
    DeadlineExpired,
    WorkerLost,
    count_expired,
)
from .service import AnycastService, ServiceError, install_service, service_task
from .telemetry import RequestTelemetry

__all__ = ["App", "serve", "MAX_BODY_BYTES", "MAX_REQUEST_ID_CHARS"]

_log = get_logger("serve.server")

#: Largest accepted request body (a 100k-pair resolve batch is ~2 MB).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Longest honoured inbound ``X-Request-Id`` (anything longer, or with
#: non-token characters, is ignored and the generated id is kept).
MAX_REQUEST_ID_CHARS = 128


def _inbound_request_id(headers: dict) -> str | None:
    """A safe client-supplied request id, or None to keep the generated one."""
    value = headers.get("x-request-id", "").strip()
    if not value or len(value) > MAX_REQUEST_ID_CHARS:
        return None
    if not all(ch.isalnum() or ch in "-_." for ch in value):
        return None
    return value


class App:
    """One daemon: service + offload pool + lifecycle, shared by handlers."""

    def __init__(self, service: AnycastService, config: ServeConfig,
                 pool: MonitoredPool | None = None):
        self.service = service
        self.config = config
        self.pool = pool
        self.lifecycle = Lifecycle(grace=config.grace)
        self.telemetry = RequestTelemetry(config.access_log)
        # One compute slot per pool worker (one thread slot for
        # --workers 0), so an admitted query never waits for a worker:
        # every wait is queue time, visible to deadlines and the drain.
        self.admission = AdmissionQueue(max(1, config.workers), config.max_queue)
        self.breaker = CircuitBreaker(
            config.breaker_threshold, config.breaker_cooldown
        )
        self._task_seq = 0  #: per-daemon pool submission counter (fault keying)
        # Requests queued at drain-start must not sit out --grace
        # holding connections: shed them all with 503 + Retry-After.
        self.lifecycle.on_drain(self.admission.shed_queued)

    async def execute(self, op: str, kwargs: dict,
                      deadline: Deadline | None = None) -> dict:
        """Run one service operation; returns its payload.

        A resolve runs on the event loop, every other operation on a
        pool worker or a thread.

        Raises :class:`ServiceError` for client-attributable failures
        (the worker ships them back reified, so a bad request never
        burns a retry or a worker) — including the overload verdicts:
        shed (429/503), deadline expired (504), workers lost (503).

        Two phase spans open here, and count however they end:
        ``serve.queue`` (the admission queue — its span says whether the
        request was admitted or shed, and why) and ``serve.compute``
        (the inline call, or the pool or thread round-trip, bounded by
        ``deadline``), whose ``serve.task`` child is the operation
        itself wherever it ran.  With
        tracing on, a pool worker re-roots its spans under this
        context's compute frame, and the worker's wall time is
        attributed to that frame's child time — the same telescoping
        contract the batch runner keeps.
        """
        with trace.span("serve.queue") as queue_span:
            try:
                await self.admission.acquire(op, deadline)
            except ServiceError as error:
                queue_span.set(
                    outcome=f"shed:{getattr(error, 'reason', None) or 'deadline'}"
                )
                raise
            queue_span.set(outcome="admitted")
        try:
            return await self._compute(op, kwargs, deadline)
        finally:
            self.admission.release()

    async def _compute(self, op: str, kwargs: dict,
                       deadline: Deadline | None) -> dict:
        expire = faults.maybe_fire("deadline_expire", f"serve.{op}")
        if expire is not None and deadline is not None:
            deadline.expire_in(expire.delay())
        if deadline is not None and deadline.expired:
            # The budget drained in the admission queue (or an injected
            # expiry): answer 504 now rather than burn compute on an
            # answer nobody is waiting for.  Checked before route():
            # a half-open probe slot taken here would never be reported.
            count_expired("compute")
            raise DeadlineExpired(deadline.budget_ms, where="compute")
        if op == "resolve":
            # A resolve answers on the loop in every mode: its kernel
            # call costs less than the hops to a worker and back, and no
            # worker crash or breaker state can reach it there.
            route = "inline"
        elif self.pool is None:
            route = "thread"
        else:
            route = self.breaker.route()
        with trace.span("serve.compute", op=op) as compute_span:
            if route == "inline":
                with trace.span("serve.task", op=op):
                    verdict = self.service.execute_safe(op, kwargs)
                if deadline is not None and deadline.expired:
                    # Nothing to reclaim and no pool failure: the
                    # answer is just late.
                    count_expired("compute")
                    raise DeadlineExpired(deadline.budget_ms, where="compute")
            elif route in ("pool", "probe"):
                verdict, worker_dur_s = await self._pool_compute(
                    op, kwargs, deadline, route, compute_span
                )
                # The worker's top span is this frame's child in
                # another process; attribute its wall time here so
                # exclusive times keep telescoping across the hop.
                compute_span.child_s += worker_dur_s
            else:
                degraded = route == "degraded"
                if degraded:
                    compute_span.set(degraded=True)
                    metrics.counter("serve.degraded.total").inc()
                    metrics.counter(f"serve.{op}.degraded.total").inc()
                verdict = await self._thread_compute(op, kwargs, deadline, degraded)
        if verdict[0] == "error":
            raise ServiceError(verdict[1], verdict[2])
        return verdict[1]

    async def _pool_compute(self, op: str, kwargs: dict,
                            deadline: Deadline | None, route: str,
                            compute_span) -> tuple:
        """One pool round-trip: deadline-bounded, one retry on worker death.

        Returns ``(verdict, worker_dur_s)``.  Every submission gets a
        fresh ``seq`` (the fault layer's attempt key), so a retry after
        a ``worker_crash`` firing is a new draw, not a doomed replay.
        The breaker hears about every round-trip: worker death and
        deadline expiry are failures; a delivered verdict — even a
        reified client error — is a success.
        """
        last_death = "worker died"
        for attempt in range(2):
            trace_ctx = None
            if trace.enabled and trace.shard_dir is not None:
                trace_ctx = (
                    str(trace.shard_dir),
                    compute_span.span_id,
                    current_trace_id(),
                )
            seq, self._task_seq = self._task_seq, self._task_seq + 1
            timeout = deadline.remaining_s() if deadline is not None else None
            try:
                ok, payload, detail = await self.pool.call(
                    (op, kwargs, trace_ctx, seq), timeout
                )
            except TimeoutError:
                # The pool already reclaimed the slot: a worker still
                # running the task was killed and respawned.
                self.breaker.record_failure(route, "deadline expired")
                count_expired("compute")
                raise DeadlineExpired(deadline.budget_ms, where="compute") from None
            except RuntimeError as error:  # worker died
                last_death = str(error)
                metrics.counter("serve.worker_lost.total").inc()
                self.breaker.record_failure(route, last_death)
                retryable = (
                    attempt == 0
                    and route == "pool"
                    and not self.lifecycle.draining
                    and (deadline is None or not deadline.expired)
                )
                if not retryable:
                    break
                metrics.counter("serve.retries.total").inc()
                _log.warning("%s serving %s; retrying on a fresh worker",
                             last_death, op)
                continue
            if not ok:
                # Worker-side harness failure (not a reified client
                # error) — a bug, so surface a 500, but count it against
                # the breaker like any other pool failure.
                self.breaker.record_failure(route, detail or "task failed")
                raise RuntimeError(detail or "service task failed")
            verdict, delta, worker_dur_s = payload
            if delta is not None:
                metrics.merge(delta)
            self.breaker.record_success(route)
            return verdict, worker_dur_s
        raise WorkerLost(
            f"pool workers kept dying under this request ({last_death}); "
            "retry shortly"
        )

    async def _thread_compute(self, op: str, kwargs: dict,
                              deadline: Deadline | None,
                              degraded: bool) -> tuple:
        # run_in_executor does not propagate contextvars, so carry the
        # context over explicitly — kernel spans in the thread then
        # nest under this compute frame.
        loop = asyncio.get_running_loop()
        context = contextvars.copy_context()
        if degraded and op == "whatif":
            # Browned out: take the full-rebuild oracle, the simplest
            # code path, instead of the delta kernel.
            kwargs = dict(kwargs, degraded=True)
        future = loop.run_in_executor(
            None, lambda: context.run(self.service.execute_safe, op, kwargs)
        )
        timeout = deadline.remaining_s() if deadline is not None else None
        # asyncio.wait, unlike wait_for, leaves the future running on
        # timeout.  The thread cannot be killed: the client gets its 504
        # on time, and the thread keeps an admission slot until it
        # returns, so admission, not the executor's thread cap, bounds
        # how many computations run at once.
        done, _ = await asyncio.wait((future,), timeout=timeout)
        if not done:
            self.admission.hold_until(future)
            count_expired("compute")
            raise DeadlineExpired(deadline.budget_ms, where="compute")
        return future.result()

    # -- connection handling ----------------------------------------------
    async def handle_client(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                # Read the request line *before* opening the request
                # span: keep-alive idle time between requests is not
                # request time.
                request_line = await reader.readline()
                if not request_line:
                    break  # client closed cleanly between requests
                if await self._serve_one(reader, writer, request_line):
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _serve_one(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter,
                         request_line: bytes) -> bool:
        """Serve one request end to end; True = close the connection."""
        trace_id = uuid.uuid4().hex
        set_trace_id(trace_id)
        request_span = trace.span("serve.request", trace_id=trace_id).tally_children()
        try:
            with request_span:
                request: Request | None = None
                parse_error: ServiceError | None = None
                with trace.span("serve.parse"):
                    try:
                        request = await _read_request(reader, request_line)
                    except ServiceError as error:
                        parse_error = error
                if request is not None:
                    inbound = _inbound_request_id(request.headers)
                    if inbound is not None:
                        trace_id = inbound
                        set_trace_id(trace_id)
                    request_span.set(
                        trace_id=trace_id, method=request.method, path=request.path,
                        bytes_in=len(request.body),
                    )
                # Snapshot the drain state at arrival: a request read off
                # the wire before the drain began is answered within the
                # grace window; one arriving after it gets 503.
                arrived_draining = self.lifecycle.draining
                # The in-flight window covers the response flush too, so
                # a drain cannot tear the loop down under a
                # written-but-unflushed answer.
                self.lifecycle.request_started()
                try:
                    if parse_error is not None:
                        response = error_response(
                            parse_error.status, "unrouted", str(parse_error)
                        )
                        close = True
                    else:
                        slow = faults.maybe_fire(
                            "slow_request", f"{request.method} {request.path}"
                        )
                        if slow is not None:
                            await asyncio.sleep(slow.delay())
                        response = await handle(
                            self, request, reject_draining=arrived_draining
                        )
                        close = (
                            self.lifecycle.draining
                            or request.headers.get("connection", "").lower() == "close"
                        )
                    request_span.set(
                        endpoint=response.endpoint, status=response.status,
                        bytes_out=len(response.body),
                    )
                    response.headers["X-Request-Id"] = trace_id
                    _write_response(writer, response, close=close)
                    await writer.drain()
                finally:
                    self.lifecycle.request_finished()
        finally:
            set_trace_id(None)  # keep-alive idle time carries no request id
            self.telemetry.record(request_span)
        return close


async def _read_request(reader: asyncio.StreamReader,
                        request_line: bytes) -> Request:
    """Parse one request whose request line was already read."""
    try:
        method, target, _version = request_line.decode("latin-1").split()
    except ValueError:
        raise ServiceError(400, "malformed request line") from None
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        key, sep, value = line.decode("latin-1").partition(":")
        if sep:
            headers[key.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise ServiceError(400, "bad Content-Length") from None
    if length > MAX_BODY_BYTES:
        raise ServiceError(413, f"body of {length} bytes exceeds {MAX_BODY_BYTES}")
    body = await reader.readexactly(length) if length else b""
    path = target.split("?", 1)[0]
    return Request(method=method.upper(), path=path, headers=headers, body=body)


def _write_response(writer: asyncio.StreamWriter, response: Response,
                    *, close: bool) -> None:
    extra = "".join(
        f"{name}: {value}\r\n" for name, value in response.headers.items()
    )
    head = (
        f"HTTP/1.1 {response.status} {response.reason}\r\n"
        f"Content-Type: {response.content_type}\r\n"
        f"Content-Length: {len(response.body)}\r\n"
        f"{extra}"
        f"Connection: {'close' if close else 'keep-alive'}\r\n"
        "\r\n"
    )
    writer.write(head.encode("latin-1") + response.body)


async def _amain(app: App, *, ready=None) -> int:
    lifecycle = app.lifecycle
    lifecycle.install_signal_handlers(asyncio.get_running_loop())
    server = await asyncio.start_server(
        app.handle_client, host=app.config.host, port=app.config.port
    )
    host, port = server.sockets[0].getsockname()[:2]
    print(f"serving on http://{host}:{port}", flush=True)
    if ready is not None:
        ready(host, port)
    async with server:
        await lifecycle.wait_for_drain()
        # Stop accepting: close the listening sockets; established
        # connections (and their in-flight requests) live on below.
        server.close()
        await server.wait_closed()
    drained = await lifecycle.wait_idle()
    if drained:
        _log.warning("drained cleanly (%s)", lifecycle.reason)
        return 0
    _log.error(
        "grace of %.1fs expired with %d request(s) in flight (%s)",
        lifecycle.grace, lifecycle.inflight, lifecycle.reason,
    )
    return EXIT_PREEMPTED


def serve(config: ServeConfig, *, scenario=None) -> int:
    """Boot the daemon and block until it drains; returns the exit code.

    ``scenario`` injects a pre-built scenario (tests); by default the
    scenario is built (or loaded from the artifact cache) here, then
    warmed, then — only then — the worker pool forks, so workers share
    every resident table copy-on-write.

    With ``config.trace`` set, the whole daemon lifetime runs inside
    :meth:`~repro.obs.trace.Tracer.capture`: the pool forks *after* the
    tracer starts (workers inherit the enabled tracer and shard dir),
    shuts down *before* the capture ends, and the merged trace lands at
    the configured path on exit.
    """
    import multiprocessing

    from ..experiments import Scenario

    if scenario is None:
        try:
            cache = ArtifactCache(root=config.cache_dir, enabled=not config.no_cache)
            scenario = Scenario(scale=config.scale, seed=config.seed, cache=cache)
        except ValueError as error:
            print(f"bad serve configuration: {error}", file=sys.stderr)
            return EXIT_USAGE
    _log.info("loading scenario (scale=%s seed=%d)...", config.scale, config.seed)
    service = AnycastService(scenario)
    install_service(service)

    def _boot() -> int:
        pool = None
        workers = config.workers
        if workers > 0 and "fork" not in multiprocessing.get_all_start_methods():
            _log.warning("no fork start method on this platform; using thread offload")
            workers = 0
        if workers > 0:
            pool = MonitoredPool(
                workers,
                task=service_task,
                mp_context=multiprocessing.get_context("fork"),
            )
        try:
            app = App(service, config, pool)
            try:
                app.telemetry.open()
            except OSError as error:
                print(
                    f"cannot write access log {config.access_log}: {error}",
                    file=sys.stderr,
                )
                return EXIT_IO
            try:
                return asyncio.run(_amain(app))
            except OSError as error:
                print(
                    f"cannot listen on {config.host}:{config.port}: {error}",
                    file=sys.stderr,
                )
                return EXIT_IO
            finally:
                app.telemetry.close()
        finally:
            # Inside any trace capture: worker shards must be final
            # before the capture merges them.
            if pool is not None:
                pool.shutdown()

    try:
        if config.trace:
            try:
                capture = trace.capture(
                    config.trace, name="serve.daemon",
                    scale=config.scale, seed=config.seed,
                )
                with capture:
                    return _boot()
            except OSError as error:
                print(f"cannot write trace {config.trace}: {error}", file=sys.stderr)
                return EXIT_IO
        return _boot()
    finally:
        install_service(None)
