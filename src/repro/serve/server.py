"""The asyncio server around a :class:`ReliabilityService`.

:class:`ReliabilityServer` owns the listening socket and the
per-connection protocol loop (HTTP/1.1 keep-alive with an idle
timeout); :func:`serve_until_shutdown` adds the operational contract the
CLI exposes:

* **ephemeral binding** — ``port=0`` binds a kernel-assigned port and
  the bound address is reported through ``on_bound`` before any request
  is accepted (the CLI prints it as its only stdout line);
* **graceful shutdown** — on SIGTERM/SIGINT the listener closes,
  in-flight requests get a bounded grace period, stragglers are
  cancelled, and a final versioned :class:`~repro.live.LiveAnalytics`
  snapshot is written *atomically* (tmp + rename, via
  ``LiveAnalytics.save_snapshot``) before the loop exits — a kill can
  never leave a torn snapshot behind.

:class:`BackgroundServer` runs the same server on a dedicated event-loop
thread, which is how tests and the load benchmark drive a real socket
without blocking the caller.
"""

import asyncio
import logging
import signal
import threading
from pathlib import Path
from typing import Optional, Set

from repro.serve.http11 import HttpError, read_request
from repro.serve.service import ReliabilityService

logger = logging.getLogger("repro.serve")

#: Idle keep-alive connections are reaped after this many seconds.
KEEP_ALIVE_TIMEOUT = 30.0
#: In-flight requests get this long to finish during shutdown.
DEFAULT_GRACE_S = 1.0


class ReliabilityServer:
    """One listening socket serving one :class:`ReliabilityService`."""

    def __init__(
        self,
        service: ReliabilityService,
        host: str = "127.0.0.1",
        port: int = 8000,
        snapshot_out: Optional[str] = None,
        grace_s: float = DEFAULT_GRACE_S,
    ):
        self.service = service
        self.host = host
        self.port = port
        self.snapshot_out = snapshot_out
        self.grace_s = float(grace_s)
        self.bound_host: Optional[str] = None
        self.bound_port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: Set["asyncio.Task"] = set()

    @property
    def address(self) -> str:
        """``http://host:port`` of the *bound* socket (post-``start``)."""
        if self.bound_port is None:
            raise RuntimeError("server is not started")
        return f"http://{self.bound_host}:{self.bound_port}"

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.bound_host, self.bound_port = sockname[0], sockname[1]
        logger.info("listening on %s", self.address)

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self.service.metrics.counter("serve_connections_total").inc()
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        read_request(reader), timeout=KEEP_ALIVE_TIMEOUT
                    )
                except asyncio.TimeoutError:
                    break
                except HttpError as err:
                    # Protocol-level failure: answer if the pipe is still
                    # up, then drop the connection (framing is suspect).
                    writer.write(err.response().encode(keep_alive=False))
                    await writer.drain()
                    break
                if request is None:  # clean EOF between requests
                    break
                keep_alive = request.keep_alive
                response = await self.service.dispatch(request)
                writer.write(response.encode(keep_alive=keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def stop(self) -> None:
        """Graceful shutdown: drain, cancel stragglers, final snapshot.

        The snapshot write is last and atomic, so whatever was on disk
        before the kill (e.g. the warm-start snapshot the server resumed
        from) is never torn — either the old bytes or the complete new
        document survive.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pending = [t for t in self._conn_tasks if not t.done()]
        if pending:
            done, still_pending = await asyncio.wait(
                pending, timeout=self.grace_s
            )
            for task in still_pending:
                task.cancel()
            if still_pending:
                await asyncio.gather(*still_pending, return_exceptions=True)
                logger.info(
                    "cancelled %d in-flight request(s) after %.1fs grace",
                    len(still_pending),
                    self.grace_s,
                )
        self.write_final_snapshot()

    def write_final_snapshot(self) -> Optional[Path]:
        """Atomically persist the live session (tmp + rename); idempotent."""
        if self.snapshot_out is None:
            return None
        path = self.service.analytics.save_snapshot(self.snapshot_out)
        logger.info("final snapshot: %s", path)
        return path


async def serve_until_shutdown(
    service: ReliabilityService,
    host: str = "127.0.0.1",
    port: int = 8000,
    snapshot_out: Optional[str] = None,
    grace_s: float = DEFAULT_GRACE_S,
    on_bound=None,
) -> ReliabilityServer:
    """Run the server until SIGTERM/SIGINT.

    ``on_bound(server)`` fires after binding, before the first request —
    the CLI's hook for printing the bound address.
    """
    server = ReliabilityServer(
        service,
        host=host,
        port=port,
        snapshot_out=snapshot_out,
        grace_s=grace_s,
    )
    await server.start()
    if on_bound is not None:
        on_bound(server)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed = []
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
            installed.append(sig)
        except (NotImplementedError, RuntimeError):
            # Non-POSIX loop or non-main thread: no signal stops it.
            pass
    try:
        await stop.wait()
        logger.info("shutdown requested; draining")
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)
        await server.stop()
    return server


class BackgroundServer:
    """A :class:`ReliabilityServer` on its own event-loop thread.

    Context-manager shape for tests and benchmarks::

        with BackgroundServer(service) as server:
            conn = http.client.HTTPConnection(server.bound_host,
                                              server.bound_port)
            ...

    Startup errors (e.g. a busy port) re-raise in ``__enter__``; exit
    runs the same graceful-shutdown path as a signal would.
    """

    def __init__(
        self,
        service: ReliabilityService,
        host: str = "127.0.0.1",
        port: int = 0,
        snapshot_out: Optional[str] = None,
        grace_s: float = DEFAULT_GRACE_S,
    ):
        self.server = ReliabilityServer(
            service,
            host=host,
            port=port,
            snapshot_out=snapshot_out,
            grace_s=grace_s,
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def bound_host(self) -> str:
        return self.server.bound_host

    @property
    def bound_port(self) -> int:
        return self.server.bound_port

    @property
    def address(self) -> str:
        return self.server.address

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.server.start())
        except BaseException as err:  # surfaced in __enter__
            self._startup_error = err
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
            loop.run_until_complete(self.server.stop())
            # Let the executor's threads finish (a cancelled what-if's
            # simulation keeps running there briefly).
            loop.run_until_complete(loop.shutdown_default_executor())
        finally:
            loop.close()

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def stop(self) -> None:
        if self._loop is not None and not self._loop.is_closed():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join()

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
