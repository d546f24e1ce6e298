"""In-process harness for running a :class:`SweepServer` under test.

:class:`ServerHarness` runs the daemon's asyncio loop on a background
thread, binds an ephemeral port, and hands back a ready
:class:`~repro.serve.client.ServeClient` — so the fault-injection suite,
the concurrency/determinism suite, the serving benchmark, and the docs
snippets can all drive a real daemon over real sockets without spawning
a process.  ``stop()`` (or the context manager) performs the same
drain-and-persist shutdown as ``POST /v1/shutdown``; ``kill``-style
faults are modelled with the daemon's ``point_hook`` seam instead, which
crashes a worker at a deterministic point boundary.
"""

from __future__ import annotations

import asyncio
import os
import threading
from typing import Any, Callable

from repro.experiments.store import SampleStore
from repro.serve.client import ServeClient
from repro.serve.daemon import SweepServer

__all__ = ["ServerHarness"]


class ServerHarness:
    """Run a :class:`SweepServer` on a daemon thread; use as a context
    manager or via explicit :meth:`start`/:meth:`stop`.

    All constructor keywords are forwarded to :class:`SweepServer`; the
    port defaults to ephemeral.  After :meth:`start`, :attr:`url` is the
    live endpoint and :meth:`client` builds connected clients.
    """

    def __init__(
        self,
        *,
        store: str | os.PathLike | SampleStore,
        spool_dir: str | os.PathLike | None = None,
        workers: int = 1,
        point_hook: Callable[..., Any] | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.server = SweepServer(
            store=store,
            spool_dir=spool_dir,
            host=host,
            port=port,
            workers=workers,
            point_hook=point_hook,
        )
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._error: BaseException | None = None

    @property
    def url(self) -> str:
        """The daemon's base URL (valid once started)."""
        return f"http://{self.server.host}:{self.server.port}"

    def client(self, *, timeout: float = 60.0) -> ServeClient:
        """A :class:`ServeClient` connected to this harness's daemon."""
        return ServeClient(self.url, timeout=timeout)

    def start(self, *, timeout: float = 30.0) -> "ServerHarness":
        """Start the daemon thread and block until the port is bound."""
        if self._thread is not None:
            raise RuntimeError("harness already started")

        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            await self.server.serve(ready=lambda _server: self._ready.set())

        def runner() -> None:
            try:
                asyncio.run(main())
            except BaseException as exc:  # surface startup/serve failures
                self._error = exc
            finally:
                self._ready.set()  # unblock start() on failure too

        self._thread = threading.Thread(
            target=runner, name="repro-serve-harness", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("daemon did not start within timeout")
        if self._error is not None:
            raise RuntimeError(f"daemon failed to start: {self._error!r}")
        return self

    def stop(self, *, timeout: float = 60.0) -> None:
        """Stop the daemon (drain running points, persist spool/costs)."""
        if self._thread is None:
            return
        if self._loop is not None and self._thread.is_alive():
            try:
                self._loop.call_soon_threadsafe(self.server.request_stop)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("daemon did not stop within timeout")
        self._thread = None
        self._loop = None
        self._ready.clear()
        if self._error is not None:
            error, self._error = self._error, None
            raise RuntimeError(f"daemon crashed: {error!r}") from error

    def __enter__(self) -> "ServerHarness":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
