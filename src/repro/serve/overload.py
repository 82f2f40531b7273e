"""Overload control for ``repro serve``: admission, deadlines, breaker.

The daemon's value under load is decided by what it does at *overload*,
not at steady state (the FastRoute lesson): a burst must be shed with
well-formed answers, not queued into memory; a slow request must be cut
at its deadline, not allowed to wedge a worker; a crashing pool must
brown the service out to a degraded-but-answering mode, not black it
out.  Three pieces, all event-loop-confined (no locks):

* :class:`AdmissionQueue` — a bounded waiting room in front of the
  compute capacity, and the only place a query waits.  The daemon
  sizes it to that capacity: ``max_inflight`` is ``--workers`` (one
  slot per pool worker; ``--workers 0`` computes on one thread), so an
  admitted request never waits again for a worker.  Up to
  ``max_queue`` more wait in arrival order; a newcomer that finds the
  room full is **shed** immediately with a 429 and a ``Retry-After``
  hint.  A drain sheds every waiter at once (503), so queued requests
  never sit out ``--grace`` holding slots.

* :class:`Deadline` — a per-request compute budget.  Every heavy
  endpoint has a default (:data:`DEFAULT_DEADLINE_MS`); clients lower
  (or raise, up to :data:`MAX_DEADLINE_MS`) it with an ``X-Deadline-Ms``
  header.  The budget covers queue wait *and* compute; expiry anywhere
  answers 504 inside the standard error envelope, and an expired pool
  task is abandoned — its worker killed and respawned — so the slot
  comes back instead of staying wedged.  A thread cannot be killed, so
  an expired thread keeps its slot until it returns.

* :class:`CircuitBreaker` — trips after ``threshold`` *consecutive*
  pool failures (worker crashes or deadline expiries while a worker
  runs the task; a budget spent in the admission queue is no pool
  failure).  While open, the pooled query endpoints (all but resolve,
  which always answers on the event loop) fall back to the warm
  in-process kernels (thread path, through the same admission slots;
  what-if additionally drops to the rebuild oracle) — degraded
  capacity, but every request still gets a correct answer.  After
  ``cooldown_s`` the breaker goes half-open and lets ``probes``
  requests try the pool again: success closes it, failure re-opens.

Shed/expiry verdicts are :class:`ServiceError` subclasses carrying
``retry_after_s``/``details``, which the handler layer maps onto the
``Retry-After`` header and extra ``payload.error`` fields — see
``docs/API.md`` (*Overload & degradation*) for the wire contract.

Metrics: ``serve.shed.total`` + ``serve.shed.<reason>.total`` (reasons
``queue_full`` / ``drain``), ``serve.deadline.expired.total``
+ ``serve.deadline.<where>.expired.total`` (``queue`` / ``compute``),
``serve.breaker.transitions.total``, and the ``serve.breaker.state``
gauge (0 closed / 1 half-open / 2 open).
"""

from __future__ import annotations

import asyncio
import time
from collections import deque

from .. import faults
from ..obs import get_logger, metrics
from .service import ServiceError

__all__ = [
    "DEFAULT_DEADLINE_MS",
    "MAX_DEADLINE_MS",
    "DEADLINE_HEADER",
    "SHED_RETRY_AFTER_S",
    "DRAIN_RETRY_AFTER_S",
    "BREAKER_STATE_VALUES",
    "ShedError",
    "DeadlineExpired",
    "count_shed",
    "count_expired",
    "WorkerLost",
    "Deadline",
    "AdmissionQueue",
    "CircuitBreaker",
]

_log = get_logger("serve.overload")

#: Per-endpoint default compute budgets, milliseconds.  Endpoints not
#: listed (healthz, metrics, the debug surface) answer on the event loop
#: and carry no deadline.  The budget covers queue wait + compute.
DEFAULT_DEADLINE_MS: dict = {
    "scenario": 5_000,
    "resolve": 10_000,
    "catchment": 15_000,
    "inflation": 15_000,
    "whatif": 30_000,
}

#: Hard ceiling on any client-requested deadline.
MAX_DEADLINE_MS = 120_000

#: The inbound header (lower-cased, as the parser stores headers).
DEADLINE_HEADER = "x-deadline-ms"

#: ``Retry-After`` hints, seconds: a queue-full shed clears in about one
#: compute round; a draining daemon needs the client to go elsewhere.
SHED_RETRY_AFTER_S = 1.0
DRAIN_RETRY_AFTER_S = 5.0

#: ``serve.breaker.state`` gauge encoding.
BREAKER_STATE_VALUES = {"closed": 0, "half_open": 1, "open": 2}


class ShedError(ServiceError):
    """A request refused to protect the service (429 queue, 503 drain)."""

    def __init__(self, status: int, message: str, *, reason: str,
                 retry_after_s: float = SHED_RETRY_AFTER_S):
        super().__init__(status, message)
        self.reason = reason
        self.retry_after_s = retry_after_s
        self.details = {"reason": reason}


class DeadlineExpired(ServiceError):
    """A request that ran out of budget (504), queued or computing."""

    def __init__(self, budget_ms: float, *, where: str):
        super().__init__(
            504,
            f"deadline of {budget_ms:.0f}ms expired in {where}",
        )
        self.where = where
        self.details = {"deadline_ms": budget_ms, "where": where}


class WorkerLost(ServiceError):
    """Pool workers kept dying under this request (clean 503, not a 500)."""

    def __init__(self, message: str):
        super().__init__(503, message)
        self.reason = "worker_lost"
        self.retry_after_s = SHED_RETRY_AFTER_S
        self.details = {"reason": "worker_lost"}


def count_shed(reason: str) -> None:
    """Count one shed request (``reason`` is ``queue_full`` or ``drain``)."""
    metrics.counter("serve.shed.total").inc()
    metrics.counter(f"serve.shed.{reason}.total").inc()


def count_expired(where: str) -> None:
    """Count one deadline expiry (``where`` is ``queue`` or ``compute``)."""
    metrics.counter("serve.deadline.expired.total").inc()
    metrics.counter(f"serve.deadline.{where}.expired.total").inc()


class Deadline:
    """One request's compute budget, counting from arrival."""

    __slots__ = ("budget_ms", "_expires_at")

    def __init__(self, budget_ms: float, *, clock=time.monotonic):
        self.budget_ms = float(budget_ms)
        self._expires_at = clock() + self.budget_ms / 1000.0

    @classmethod
    def for_request(cls, endpoint: str, headers: dict,
                    default_ms: int | None = None) -> "Deadline | None":
        """The effective deadline: header, else per-endpoint default.

        ``default_ms`` overrides :data:`DEFAULT_DEADLINE_MS` (the
        ``--deadline-ms`` flag).  Endpoints with no default and no
        header run unbounded.  A malformed or out-of-range header is a
        400 — a client that asks for a budget gets told when the ask is
        nonsense, not silently clamped.
        """
        raw = headers.get(DEADLINE_HEADER, "").strip()
        if raw:
            try:
                requested = int(raw)
            except ValueError:
                raise ServiceError(
                    400, f"{DEADLINE_HEADER} must be an integer, got {raw!r}"
                ) from None
            if not 1 <= requested <= MAX_DEADLINE_MS:
                raise ServiceError(
                    400,
                    f"{DEADLINE_HEADER} must be in [1, {MAX_DEADLINE_MS}], "
                    f"got {requested}",
                )
            return cls(requested)
        budget = DEFAULT_DEADLINE_MS.get(endpoint) if default_ms is None else default_ms
        return cls(budget) if budget else None

    def remaining_s(self, *, clock=time.monotonic) -> float:
        return self._expires_at - clock()

    @property
    def expired(self) -> bool:
        return self.remaining_s() <= 0.0

    def expire_in(self, delay_s: float, *, clock=time.monotonic) -> None:
        """Pull the expiry forward (the ``deadline_expire`` fault hook)."""
        self._expires_at = min(self._expires_at, clock() + delay_s)


class AdmissionQueue:
    """Bounded admission in front of the compute capacity (loop-confined).

    ``max_inflight`` requests hold compute slots; up to ``max_queue``
    more wait in arrival order; a newcomer beyond that is shed.
    :meth:`acquire` returns when a slot is granted and raises
    :class:`ShedError` / :class:`DeadlineExpired` otherwise — the
    caller must pair every successful acquire with exactly one
    :meth:`release`.
    """

    def __init__(self, max_inflight: int, max_queue: int):
        self.max_inflight = max(1, max_inflight)
        self.max_queue = max(0, max_queue)
        self._inflight = 0
        self._waiters: deque[asyncio.Future] = deque()

    @property
    def inflight(self) -> int:
        """Granted compute slots currently held."""
        return self._inflight

    @property
    def queued(self) -> int:
        """Requests waiting for a slot right now."""
        return len(self._waiters)

    async def acquire(self, endpoint: str, deadline: Deadline | None = None) -> None:
        """Wait for a compute slot; shed rather than queue unboundedly."""
        if faults.maybe_fire("queue_flood", endpoint) is not None:
            # The chaos hook: this request sees a full waiting room no
            # matter the actual load, so the shed path is drillable on
            # an idle daemon.
            count_shed("queue_full")
            raise ShedError(
                429, "admission queue is full (injected flood); retry shortly",
                reason="queue_full",
            )
        if deadline is not None and deadline.expired:
            count_expired("queue")
            raise DeadlineExpired(deadline.budget_ms, where="queue")
        if self._inflight < self.max_inflight and not self._waiters:
            self._inflight += 1
            return
        if len(self._waiters) >= self.max_queue:
            count_shed("queue_full")
            raise ShedError(
                429,
                f"admission queue is full ({self._inflight} in flight, "
                f"{len(self._waiters)} queued); retry shortly",
                reason="queue_full",
            )
        future = asyncio.get_running_loop().create_future()
        self._waiters.append(future)
        timeout = deadline.remaining_s() if deadline is not None else None
        try:
            await asyncio.wait_for(future, timeout=timeout)
        except (TimeoutError, asyncio.TimeoutError):
            try:
                self._waiters.remove(future)
            except ValueError:
                pass
            if future.done() and not future.cancelled() and future.exception() is None:
                # Granted in the same tick the timer fired: hand the
                # slot straight back so accounting stays exact.
                self.release()
            count_expired("queue")
            raise DeadlineExpired(deadline.budget_ms, where="queue") from None

    def release(self) -> None:
        """Return a slot; the oldest live waiter is granted it in place."""
        self._inflight -= 1
        while self._waiters and self._inflight < self.max_inflight:
            future = self._waiters.popleft()
            if future.done():  # shed or timed out while queued
                continue
            self._inflight += 1
            future.set_result(None)
            break

    def hold_until(self, work: asyncio.Future) -> None:
        """Keep one more slot taken until ``work`` is done.

        For work that outlives its request and cannot be stopped (a
        thread past its deadline): the request releases its own slot as
        usual, and this one comes back when ``work`` finishes, so no
        waiter is granted a slot the work still occupies.
        """
        self._inflight += 1
        work.add_done_callback(lambda _: self.release())

    def shed_queued(self, *, reason: str = "drain",
                    retry_after_s: float = DRAIN_RETRY_AFTER_S) -> int:
        """Shed every waiter at once (503); returns how many were shed.

        The drain hook: requests queued when the drain starts must not
        sit out ``--grace`` holding connections — they get an immediate
        503 + ``Retry-After`` and the client goes elsewhere.
        """
        shed = 0
        while self._waiters:
            future = self._waiters.popleft()
            if future.done():
                continue
            count_shed(reason)
            future.set_exception(ShedError(
                503, f"shed while {reason}ing; not accepting queued work",
                reason=reason, retry_after_s=retry_after_s,
            ))
            shed += 1
        if shed:
            _log.warning("shed %d queued request(s) (%s)", shed, reason)
        return shed


class CircuitBreaker:
    """Trips on consecutive pool failures; half-open probes re-close it.

    All transitions happen on the event loop.  :meth:`route` is asked
    before every pool round-trip and answers ``"pool"``, ``"probe"``
    (half-open trial slot), or ``"degraded"`` (stay in-process); every
    pool/probe round-trip must be answered with exactly one
    :meth:`record_success` / :meth:`record_failure` carrying the same
    route verdict.
    """

    CLOSED, HALF_OPEN, OPEN = "closed", "half_open", "open"

    def __init__(self, threshold: int = 5, cooldown_s: float = 30.0,
                 probes: int = 1, *, clock=time.monotonic):
        self.threshold = max(1, threshold)
        self.cooldown_s = max(0.0, cooldown_s)
        self.probes = max(1, probes)
        self._clock = clock
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_inflight = 0
        metrics.gauge("serve.breaker.state").set(BREAKER_STATE_VALUES[self.CLOSED])

    @property
    def state(self) -> str:
        return self._state

    def _transition(self, state: str, why: str) -> None:
        if state == self._state:
            return
        _log.warning("breaker %s -> %s (%s)", self._state, state, why)
        self._state = state
        metrics.counter("serve.breaker.transitions.total").inc()
        metrics.counter(f"serve.breaker.to_{state}.total").inc()
        metrics.gauge("serve.breaker.state").set(BREAKER_STATE_VALUES[state])

    def route(self) -> str:
        """Where the next request should compute: pool, probe, or degraded."""
        if self._state == self.OPEN:
            if self._clock() - self._opened_at < self.cooldown_s:
                return "degraded"
            self._probes_inflight = 0
            self._transition(self.HALF_OPEN, "cooldown elapsed")
        if self._state == self.HALF_OPEN:
            if self._probes_inflight >= self.probes:
                return "degraded"
            self._probes_inflight += 1
            return "probe"
        return "pool"

    def record_success(self, route: str) -> None:
        if route == "probe":
            self._probes_inflight = max(0, self._probes_inflight - 1)
            if self._state == self.HALF_OPEN:
                self._consecutive_failures = 0
                self._transition(self.CLOSED, "probe succeeded")
            return
        self._consecutive_failures = 0

    def record_failure(self, route: str, why: str = "pool failure") -> None:
        if route == "probe":
            self._probes_inflight = max(0, self._probes_inflight - 1)
            if self._state == self.HALF_OPEN:
                self._opened_at = self._clock()
                self._transition(self.OPEN, f"probe failed ({why})")
            return
        if self._state != self.CLOSED:
            return  # stale completion from before the trip
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.threshold:
            self._opened_at = self._clock()
            self._transition(
                self.OPEN,
                f"{self._consecutive_failures} consecutive failures ({why})",
            )
