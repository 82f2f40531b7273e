"""Daemon lifecycle: config, in-flight accounting, graceful drain.

Shutdown reuses the run-engine's drain contract (PR 5): the first
SIGTERM/SIGINT stops the listener, in-flight requests get ``--grace``
seconds to finish, and the process exits 0 on a clean drain or
``EXIT_PREEMPTED`` (4) when grace expired with requests still in
flight — the same exit the batch CLI uses for a preempted run, so
orchestrators need one rule for both.  A second signal hard-kills,
also exactly like the batch path.
"""

from __future__ import annotations

import asyncio
import os
import signal as _signal
import time
from dataclasses import dataclass

from ..obs import get_logger, metrics

__all__ = [
    "EXIT_OK",
    "EXIT_IO",
    "EXIT_USAGE",
    "EXIT_PREEMPTED",
    "ServeConfig",
    "Lifecycle",
]

_log = get_logger("serve.lifecycle")

EXIT_OK = 0  #: clean drain
EXIT_IO = 1  #: bind or I/O failure at startup
EXIT_USAGE = 2  #: bad configuration
EXIT_PREEMPTED = 4  #: grace expired with requests still in flight


@dataclass(frozen=True, slots=True)
class ServeConfig:
    """Everything ``repro serve`` needs to boot one daemon."""

    scale: str = "small"
    seed: int = 0
    host: str = "127.0.0.1"
    port: int = 8459
    workers: int = 2  #: pool processes = compute slots; 0 = one thread slot
    grace: float = 30.0  #: drain window for in-flight requests, seconds
    max_queue: int = 64  #: admission-queue depth before requests are shed
    breaker_threshold: int = 5  #: consecutive pool failures that open the breaker
    breaker_cooldown: float = 30.0  #: seconds open before a half-open probe
    deadline_ms: int | None = None  #: override every per-endpoint deadline default
    cache_dir: str | None = None
    no_cache: bool = False
    trace: str | None = None  #: merged span JSONL written at shutdown
    access_log: str | None = None  #: per-request JSONL, written live


class Lifecycle:
    """Drain state plus in-flight request accounting for one daemon."""

    def __init__(self, grace: float = 30.0):
        self.grace = grace
        self.started = time.monotonic()
        self.draining = False
        self.reason: str | None = None
        self._signals_seen = 0
        self._inflight = 0
        self._drain_requested = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._drain_callbacks: list = []

    # -- accounting --------------------------------------------------------
    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self.started

    @property
    def inflight(self) -> int:
        return self._inflight

    def request_started(self) -> None:
        self._inflight += 1
        self._idle.clear()
        metrics.gauge("serve.inflight.peak").set_max(self._inflight)

    def request_finished(self) -> None:
        self._inflight -= 1
        if self._inflight <= 0:
            self._idle.set()

    # -- drain -------------------------------------------------------------
    def on_drain(self, callback) -> None:
        """Register a callback to run once, when the drain begins.

        Callbacks run on the event loop (``request_drain`` is invoked
        from ``loop.add_signal_handler`` or request handlers, never a
        raw signal frame), so they may touch loop-confined state — the
        admission queue uses this to shed its waiters the moment a
        drain starts instead of letting them sit out ``--grace``.
        """
        self._drain_callbacks.append(callback)

    def request_drain(self, reason: str) -> None:
        """Sticky, idempotent: the first reason wins (signal handler safe)."""
        if not self.draining:
            self.draining = True
            self.reason = reason
            self._drain_requested.set()
            _log.warning("drain requested (%s): %d request(s) in flight",
                         reason, self._inflight)
            for callback in self._drain_callbacks:
                try:
                    callback()
                except Exception:  # noqa: BLE001 - a drain must never fail
                    _log.exception("drain callback failed")

    async def wait_for_drain(self) -> None:
        await self._drain_requested.wait()

    async def wait_idle(self) -> bool:
        """Give in-flight requests up to ``grace`` seconds; True = drained."""
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=max(0.0, self.grace))
            return True
        except TimeoutError:
            return False
        except asyncio.TimeoutError:  # pragma: no cover - Python < 3.11
            return False

    # -- signals -----------------------------------------------------------
    def install_signal_handlers(self, loop: asyncio.AbstractEventLoop) -> None:
        """First SIGTERM/SIGINT drains; the second hard-kills (128+sig)."""
        for signum in (_signal.SIGTERM, _signal.SIGINT):
            loop.add_signal_handler(signum, self._on_signal, signum)

    def _on_signal(self, signum: int) -> None:
        self._signals_seen += 1
        if self._signals_seen > 1:
            os._exit(128 + signum)  # second signal: hard kill, like the runner
        self.request_drain(f"signal {_signal.Signals(signum).name}")
