"""Monitored worker pool: survives crashes, kills hangs, retries with backoff.

The standard library's ``ProcessPoolExecutor`` treats one dead worker as
a broken pool — every pending future raises and the executor is unusable.
For a chaos-hardened engine that is the wrong failure domain: one
crashed, hung, or poisoned experiment must cost *that experiment a
retry*, not the whole run.  :class:`MonitoredPool` therefore manages its
workers directly:

* each worker is a long-lived process on its own duplex pipe, running
  ``initializer(*initargs)`` once and then a recv/run/send task loop;
* the parent is a small scheduler: it assigns tasks to idle workers,
  arms a per-task deadline when a ``timeout`` is set, and multiplexes
  completions with :func:`multiprocessing.connection.wait`;
* a worker that dies mid-task (pipe EOF) is replaced with a fresh
  process and its task is retried; a worker that blows its deadline is
  killed, replaced, and its task retried;
* retries back off exponentially (scheduled, not slept — other tasks
  keep completing while a retry waits) and are bounded: after
  ``retries`` failed re-runs a task is **quarantined** with a terminal
  status instead of failing the run.

That is the batch scheduler, :meth:`MonitoredPool.run`.  A long-lived
service uses the pool one task at a time instead: :meth:`MonitoredPool.call`
is a coroutine the caller awaits on its own event loop.  The caller
admits at most one call per worker (the serve daemon's admission queue
is sized to the pool), so a call never waits for a worker: it takes the
longest-idle one, waits for the answer with ``loop.add_reader``, and
kills and respawns a worker that died or outlived the caller's budget;
it never retries (the caller owns request-level retry policy).

Task protocol: the task function returns ``(ok, payload)``; ``ok=False``
marks a *failed attempt* whose payload is still delivered (so the
engine can merge the metrics/stage records a failed attempt produced).
Every attempt is passed its attempt number, which is what keeps
deterministic fault plans replayable across retries.

Failure accounting goes through :mod:`repro.obs.metrics`:
``engine.retries.total``, ``engine.quarantined.total``,
``engine.worker_crashes.total``, ``engine.timeouts.total``, and, for
:meth:`~MonitoredPool.call`, ``engine.pool.abandoned.total``.
"""

from __future__ import annotations

import heapq
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait

from ..obs import get_logger, metrics
from ..obs.metrics import LATENCY_BUCKETS_MS

__all__ = ["MonitoredPool", "TaskOutcome", "AttemptFailure"]

_log = get_logger("engine.pool")


@dataclass(slots=True)
class AttemptFailure:
    """One failed attempt of one task."""

    kind: str  #: ``error`` | ``crash`` | ``timeout``
    detail: str | None = None  #: pool-observed description (crash/timeout)
    payload: object | None = None  #: the task's own failure payload (errors)


@dataclass(slots=True)
class TaskOutcome:
    """Terminal state of one task after retries."""

    status: str = "ok"  #: ``ok`` | ``retried`` | ``failed`` | ``timeout`` | ``preempted``
    value: object | None = None  #: success payload (``None`` when quarantined)
    attempts: int = 0  #: how many attempts ran
    failures: list[AttemptFailure] = field(default_factory=list)
    elapsed_s: float = 0.0  #: parent-observed wall time across attempts

    @property
    def quarantined(self) -> bool:
        return self.status in ("failed", "timeout")

    @property
    def preempted(self) -> bool:
        return self.status == "preempted"

    @property
    def error(self) -> str | None:
        """The last failure's description, for reports."""
        if not self.failures:
            return None
        last = self.failures[-1]
        if last.detail is not None:
            return last.detail
        return f"attempt failed ({last.kind})"


@dataclass(slots=True)
class _Worker:
    process: object
    conn: object
    task: int | None = None  #: index of the running task, None when idle
    deadline: float | None = None
    started: float = 0.0


def _worker_main(conn, initializer, initargs, task_fn):  # pragma: no cover - child process
    # A worker forked under a running event loop inherits the loop's
    # signal wakeup fd, the write end of the parent's self-pipe: any
    # signal it caught would be relayed into the parent as its own.
    signal.set_wakeup_fd(-1)
    try:
        if initializer is not None:
            initializer(*initargs)
        while True:
            try:
                message = conn.recv()
            except (EOFError, KeyboardInterrupt):
                break
            if message is None:
                break
            index, args, attempt = message
            try:
                ok, payload = task_fn(*args, attempt)
            except BaseException as error:  # harness bug or injected BaseException
                ok, payload = False, None
                try:
                    conn.send((index, ok, payload, f"{type(error).__name__}: {error}"))
                except Exception:
                    break
                continue
            conn.send((index, ok, payload, None))
    finally:
        try:
            conn.close()
        except Exception:
            pass


class MonitoredPool:
    """A crash-, hang-, and failure-aware pool of persistent workers."""

    def __init__(self, max_workers: int, *, initializer=None, initargs=(), task=None, mp_context=None):
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if task is None:
            raise ValueError("MonitoredPool needs a module-level task function")
        import multiprocessing

        self._ctx = mp_context if mp_context is not None else multiprocessing.get_context()
        self._initializer = initializer
        self._initargs = initargs
        self._task_fn = task
        self._workers = [self._spawn() for _ in range(max_workers)]
        self._idle = deque(self._workers)  #: call()'s idle workers, longest idle first

    # -- lifecycle ---------------------------------------------------------
    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._initializer, self._initargs, self._task_fn),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(process=process, conn=parent_conn)

    def _replace(self, worker: _Worker) -> None:
        """Kill (if needed) and respawn one worker in place.

        SIGKILL, not SIGTERM: a forked worker inherits its parent's
        Python-level signal handlers, which may well ignore SIGTERM.
        """
        began = time.monotonic()
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=5.0)
        fresh = self._spawn()
        worker.process, worker.conn = fresh.process, fresh.conn
        worker.task, worker.deadline = None, None
        # How long a crash/abandon leaves the pool one worker short —
        # the serve daemon's self-healing latency.
        metrics.histogram(
            "engine.pool.respawn_ms", buckets=LATENCY_BUCKETS_MS
        ).observe((time.monotonic() - began) * 1000.0)

    def shutdown(self) -> None:
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except (OSError, BrokenPipeError):
                pass
        for worker in self._workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=5.0)
            try:
                worker.conn.close()
            except OSError:
                pass
        self._workers = []

    def __enter__(self) -> "MonitoredPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # -- one task at a time, on the caller's event loop ---------------------
    async def call(self, args: tuple, timeout: float | None = None) -> tuple:
        """Run one task on an idle worker; returns ``(ok, payload, detail)``.

        Awaited on the caller's event loop; a pool serves calls from one
        loop, and ``run()`` must not be interleaved with them.  The
        caller keeps at most one call per worker in flight, so a call
        never waits: it takes the longest-idle worker (``IndexError``
        when the caller broke that bound).  ``timeout`` bounds the task;
        when it runs out the call raises :class:`TimeoutError`, and the
        worker, which may never answer (the reason the budget ran out),
        is killed and respawned to reclaim the slot, counted in
        ``engine.pool.abandoned.total``.  A worker that dies mid-task is
        replaced and the call raises ``RuntimeError``; a worker found
        dead when the task is sent is replaced and the task resent.
        """
        import asyncio  # not at module level: batch runs never need it

        loop = asyncio.get_running_loop()
        worker = self._idle.popleft()
        busy = False  #: the worker holds a task whose answer is still unread
        try:
            try:
                worker.conn.send((0, args, 0))
            except OSError:  # died while idle
                self._replace(worker)
                worker.conn.send((0, args, 0))
            busy = True
            answered = loop.create_future()
            fd = worker.conn.fileno()
            loop.add_reader(fd, lambda: answered.done() or answered.set_result(None))
            try:
                await asyncio.wait_for(answered, timeout)
            except asyncio.TimeoutError:
                raise TimeoutError(f"task outlived its {timeout:.3f}s budget") from None
            finally:
                loop.remove_reader(fd)
            busy = False
            try:
                _, ok, payload, detail = worker.conn.recv()
            except (EOFError, OSError):
                worker.process.join(timeout=5.0)
                code = worker.process.exitcode
                metrics.counter("engine.worker_crashes.total").inc()
                self._replace(worker)
                raise RuntimeError(f"worker died (exit code {code})") from None
            return ok, payload, detail
        finally:
            if busy:  # timed out or cancelled mid-task
                self._replace(worker)
                metrics.counter("engine.pool.abandoned.total").inc()
            self._idle.append(worker)

    # -- scheduling --------------------------------------------------------
    def run(
        self,
        tasks: list[tuple],
        *,
        timeout: float | None = None,
        retries: int = 2,
        backoff: float = 0.05,
        drain=None,
        grace: float = 30.0,
        on_result=None,
    ) -> list[TaskOutcome]:
        """Run every task to a terminal outcome; never raises for task failures.

        ``tasks`` are argument tuples for the pool's task function;
        outcomes come back in input order.  ``timeout`` is the per-attempt
        deadline (``None`` = unbounded), ``retries`` bounds re-runs after
        a failed attempt, ``backoff`` is the base of the exponential
        retry delay (``backoff * 2**(attempt-1)`` seconds).

        ``drain`` is the graceful-preemption hook: a callable invoked
        with a task index right before that task would be dispatched and
        with ``None`` once per scheduler pass.  The first truthy return
        starts a **drain**: nothing new is dispatched, queued and
        delayed tasks are immediately marked ``preempted``, in-flight
        tasks get up to ``grace`` seconds to finish (their completions
        still count), and whatever is left is killed and marked
        ``preempted``.  A failed attempt during a drain is preempted
        rather than retried (unless its retries were already exhausted,
        in which case the quarantine verdict stands).

        ``on_result`` is called as ``on_result(index, outcome)`` the
        moment each task reaches a terminal state — the journaling hook;
        it runs in the parent, in completion order.
        """
        outcomes = [TaskOutcome() for _ in tasks]
        ready: deque[int] = deque(range(len(tasks)))
        delayed: list[tuple[float, int]] = []  # (due, index) min-heap
        done = 0
        draining = False
        kill_at: float | None = None

        def finish(index: int) -> None:
            nonlocal done
            done += 1
            if on_result is not None:
                on_result(index, outcomes[index])

        def preempt(index: int) -> None:
            outcomes[index].status = "preempted"
            metrics.counter("engine.preempted.total").inc()
            finish(index)

        def begin_drain() -> None:
            nonlocal draining, kill_at
            draining = True
            kill_at = time.monotonic() + max(0.0, grace)
            while ready:
                preempt(ready.popleft())
            while delayed:
                preempt(heapq.heappop(delayed)[1])
            in_flight = sum(1 for w in self._workers if w.task is not None)
            _log.warning(
                "draining: %d task(s) in flight get %.1fs of grace, "
                "the rest are preempted", in_flight, grace,
            )

        def fail_attempt(index: int, failure: AttemptFailure) -> None:
            outcome = outcomes[index]
            outcome.failures.append(failure)
            if failure.kind == "crash":
                metrics.counter("engine.worker_crashes.total").inc()
            elif failure.kind == "timeout":
                metrics.counter("engine.timeouts.total").inc()
            if outcome.attempts <= retries:
                if draining:
                    # No retries while draining: leave the verdict open so
                    # a resumed run re-executes this task from scratch.
                    preempt(index)
                    return
                metrics.counter("engine.retries.total").inc()
                delay = backoff * (2 ** (outcome.attempts - 1))
                heapq.heappush(delayed, (time.monotonic() + delay, index))
                _log.warning(
                    "task %d attempt %d failed (%s); retrying in %.2fs",
                    index, outcome.attempts, failure.kind, delay,
                )
            else:
                outcome.status = "timeout" if failure.kind == "timeout" else "failed"
                metrics.counter("engine.quarantined.total").inc()
                _log.error(
                    "task %d quarantined after %d attempts (%s)",
                    index, outcome.attempts, outcome.error,
                )
                finish(index)

        while done < len(tasks):
            now = time.monotonic()
            if not draining and drain is not None and drain(None):
                begin_drain()
            if not draining:
                while delayed and delayed[0][0] <= now:
                    ready.append(heapq.heappop(delayed)[1])
                for worker in self._workers:
                    if worker.task is None and ready:
                        index = ready[0]
                        if drain is not None and drain(index):
                            begin_drain()  # flushes `index` with the rest
                            break
                        ready.popleft()
                        self._assign(worker, index, tasks, outcomes, timeout)
            busy = [worker for worker in self._workers if worker.task is not None]
            if not busy:
                if draining:
                    continue  # everything terminal: the loop condition ends it
                if delayed:
                    time.sleep(max(0.0, delayed[0][0] - time.monotonic()))
                    continue
                if ready:  # pragma: no cover - more tasks than live workers
                    continue
                break  # pragma: no cover - accounting mismatch; fail open
            wait_s = self._wait_budget(busy, delayed, time.monotonic(), kill_at)
            if drain is not None:
                # Poll while drainable: a signal handler can only set a
                # flag, and an unbounded pipe wait would never re-check
                # it (PEP 475 restarts the wait after the handler runs).
                wait_s = 0.2 if wait_s is None else min(wait_s, 0.2)
            ready_conns = set(_connection_wait([w.conn for w in busy], timeout=wait_s))
            now = time.monotonic()
            for worker in busy:
                if worker.conn in ready_conns:
                    index = worker.task
                    outcome = outcomes[index]
                    outcome.elapsed_s += now - worker.started
                    try:
                        _, ok, payload, detail = worker.conn.recv()
                    except EOFError:
                        worker.process.join(timeout=5.0)
                        code = worker.process.exitcode
                        self._replace(worker)
                        fail_attempt(
                            index,
                            AttemptFailure("crash", f"worker died (exit code {code})"),
                        )
                        continue
                    worker.task, worker.deadline = None, None
                    if ok:
                        outcome.value = payload
                        outcome.status = "retried" if outcome.attempts > 1 else "ok"
                        finish(index)
                    else:
                        fail_attempt(index, AttemptFailure("error", detail, payload))
                elif worker.deadline is not None and now >= worker.deadline:
                    index = worker.task
                    outcomes[index].elapsed_s += now - worker.started
                    self._replace(worker)
                    fail_attempt(
                        index,
                        AttemptFailure("timeout", f"timed out after {timeout:.1f}s"),
                    )
                elif draining and kill_at is not None and now >= kill_at:
                    # Grace expired: abandon the in-flight attempt; a
                    # resumed run re-executes it from scratch.
                    index = worker.task
                    outcomes[index].elapsed_s += now - worker.started
                    self._replace(worker)
                    preempt(index)
        return outcomes

    def _assign(self, worker, index, tasks, outcomes, timeout) -> None:
        outcomes[index].attempts += 1
        attempt = outcomes[index].attempts - 1  # 0-based, what fault plans key on
        try:
            worker.conn.send((index, tasks[index], attempt))
        except (OSError, BrokenPipeError):  # pragma: no cover - died while idle
            self._replace(worker)
            worker.conn.send((index, tasks[index], attempt))
        now = time.monotonic()
        worker.task = index
        worker.started = now
        worker.deadline = (now + timeout) if timeout is not None else None

    @staticmethod
    def _wait_budget(busy, delayed, now, kill_at=None) -> float | None:
        """How long the scheduler may block before something needs attention."""
        horizon = None
        for worker in busy:
            if worker.deadline is not None:
                slack = worker.deadline - now
                horizon = slack if horizon is None else min(horizon, slack)
        if delayed:
            slack = delayed[0][0] - now
            horizon = slack if horizon is None else min(horizon, slack)
        if kill_at is not None:
            slack = kill_at - now
            horizon = slack if horizon is None else min(horizon, slack)
        if horizon is None:
            return None
        return max(0.0, horizon)
