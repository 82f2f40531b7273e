"""A minimal in-process asyncio server harness for tests.

Runs any ``handle_client(reader, writer)`` coroutine host (the serve
daemon's ``App``) on an ephemeral loopback port inside a background
thread — without the CLI's signal handlers, which only install on the
main thread.  ``tests/test_overload.py`` drives the real HTTP path
through it; keeps no ``repro`` imports so :mod:`repro.obs` stays a leaf.
"""

from __future__ import annotations

import asyncio
import threading

__all__ = ["LoopbackDaemon"]


def _quiet_cancellations(loop, context) -> None:
    if isinstance(context.get("exception"), asyncio.CancelledError):
        return
    loop.default_exception_handler(context)


class LoopbackDaemon:
    """Context manager: serve ``app.handle_client`` on 127.0.0.1:<ephemeral>.

    ``__enter__`` returns the bound port once the socket is listening;
    ``__exit__`` stops the loop and joins the thread.
    """

    def __init__(self, app, host: str = "127.0.0.1"):
        self._app = app
        self._host = host
        self._port: int | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._error: BaseException | None = None

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        # Teardown races client EOF against loop shutdown; cancelled
        # connection handlers are expected noise here, not errors worth
        # a traceback on the test output.
        self._loop.set_exception_handler(_quiet_cancellations)
        self._stop = asyncio.Event()
        server = await asyncio.start_server(self._app.handle_client, self._host, 0)
        self._port = server.sockets[0].getsockname()[1]
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            # One breath so handlers of already-closed clients finish
            # cleanly instead of being cancelled mid-teardown.
            await asyncio.sleep(0.05)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # pragma: no cover - surfaced in __enter__
            self._error = error
            self._ready.set()

    def __enter__(self) -> int:
        self._thread = threading.Thread(target=self._run, name="loopback-daemon", daemon=True)
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._error is not None:
            raise RuntimeError("loopback daemon failed to start") from self._error
        if self._port is None:
            raise RuntimeError("loopback daemon did not bind within 30s")
        return self._port

    def __exit__(self, *exc) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30)
