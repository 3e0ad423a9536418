"""The asyncio server: connections, keep-alive, and the WebSocket channel.

:func:`serve_forever` is what ``python -m repro.serve`` runs; tests,
benchmarks and examples use :class:`ServerHandle` instead, which boots the
same server on an ephemeral localhost port inside a background thread and
tears it down deterministically.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from typing import Iterable

from repro.obs.logs import get_logger
from repro.serve.app import ServeApp, ServerConfig
from repro.serve.protocol import (
    WS_CLOSE,
    WS_PING,
    WS_PONG,
    WS_TEXT,
    HttpRequest,
    HttpResponse,
    ProtocolViolation,
    build_frame,
    read_request,
    read_ws_frame,
    render_response,
    websocket_handshake_response,
)

log = get_logger("serve")

#: How often the event channel pings an idle subscriber (liveness probe).
_WS_IDLE_PING_SECONDS = 15.0


async def handle_connection(
    app: ServeApp, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    """Serve one client connection: requests until close, or one WS session."""
    try:
        while True:
            try:
                request = await read_request(reader)
            except ProtocolViolation as error:
                writer.write(
                    render_response(
                        HttpResponse.error(400, "protocol_error", str(error)),
                        keep_alive=False,
                    )
                )
                await writer.drain()
                return
            if request is None:
                return
            if request.wants_websocket:
                await serve_websocket(app, request, reader, writer)
                return
            response = await app.handle(request)
            keep_alive = request.header("connection", "keep-alive").lower() != "close"
            writer.write(render_response(response, keep_alive=keep_alive))
            await writer.drain()
            if not keep_alive:
                return
    except (ConnectionError, asyncio.CancelledError):
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def serve_websocket(
    app: ServeApp,
    request: HttpRequest,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """The event channel: ``GET /tenants/{name}/events`` upgraded to WS.

    Streams the tenant's run-phase and lifecycle events (JSON text frames)
    as the manager publishes them; answers pings; closes cleanly on a close
    frame, the tenant disappearing, or the subscriber's queue being dropped.
    """
    segments = request.segments
    if len(segments) != 3 or segments[0] != "tenants" or segments[2] != "events":
        writer.write(
            render_response(
                HttpResponse.error(
                    404, "unknown_route", f"no WebSocket route at {request.path}"
                ),
                keep_alive=False,
            )
        )
        await writer.drain()
        return
    name = segments[1]
    try:
        queue = app.manager.subscribe(name)
    except Exception as error:  # noqa: BLE001 - admission errors become 404s
        writer.write(
            render_response(
                HttpResponse.error(404, "unknown_tenant", str(error)),
                keep_alive=False,
            )
        )
        await writer.drain()
        return
    writer.write(websocket_handshake_response(request))
    await writer.drain()
    app.registry.counter(
        "repro_serve_ws_connections_total", {"tenant": name}
    ).inc()

    hello = {"type": "hello", "tenant": name, "events": "run, lifecycle"}
    writer.write(build_frame(WS_TEXT, json.dumps(hello).encode("utf-8")))
    await writer.drain()

    async def pump_events() -> None:
        while True:
            try:
                event = await asyncio.wait_for(
                    queue.get(), timeout=_WS_IDLE_PING_SECONDS
                )
            except asyncio.TimeoutError:
                writer.write(build_frame(WS_PING, b"alive?"))
                await writer.drain()
                continue
            writer.write(
                build_frame(WS_TEXT, json.dumps(event, default=str).encode("utf-8"))
            )
            await writer.drain()
            if event.get("type") == "lifecycle" and event.get("event") == "closed":
                writer.write(build_frame(WS_CLOSE, b"\x03\xe8tenant closed"))
                await writer.drain()
                return

    async def pump_frames() -> None:
        while True:
            opcode, payload = await read_ws_frame(reader)
            if opcode == WS_CLOSE:
                writer.write(build_frame(WS_CLOSE, payload[:2]))
                await writer.drain()
                return
            if opcode == WS_PING:
                writer.write(build_frame(WS_PONG, payload))
                await writer.drain()
            # Text frames from the subscriber are ignored: the channel is
            # one-way telemetry, not an RPC surface.

    tasks = [
        asyncio.ensure_future(pump_events()),
        asyncio.ensure_future(pump_frames()),
    ]
    try:
        done, pending = await asyncio.wait(
            tasks, return_when=asyncio.FIRST_COMPLETED
        )
        for task in pending:
            task.cancel()
        for task in done:
            # Surface protocol violations; swallow clean EOFs from the peer.
            error = task.exception()
            if error is not None and not isinstance(
                error, (ProtocolViolation, ConnectionError)
            ):
                raise error
    finally:
        for task in tasks:
            task.cancel()
        app.manager.unsubscribe(name, queue)


async def run_server(
    app: ServeApp,
    *,
    ready: "threading.Event | None" = None,
    bound: list | None = None,
    stop: asyncio.Event | None = None,
) -> None:
    """Bind, preload, and serve until ``stop`` (or forever)."""
    await app.startup()
    connections: set[asyncio.Task] = set()

    async def serve_client(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            connections.add(task)
        try:
            await handle_connection(app, reader, writer)
        finally:
            if task is not None:
                connections.discard(task)

    server = await asyncio.start_server(
        serve_client, app.config.host, app.config.port
    )
    addresses = ", ".join(
        f"{sock.getsockname()[0]}:{sock.getsockname()[1]}"
        for sock in server.sockets
    )
    if bound is not None:
        bound.append(server.sockets[0].getsockname()[:2])
    log.info("serving on %s (%d tenants loaded)", addresses, len(app.manager.tenants))
    if ready is not None:
        ready.set()
    try:
        async with server:
            if stop is None:
                await server.serve_forever()
            else:
                await stop.wait()
    finally:
        # Idle keep-alive connections are parked in read_request; cancel
        # them so nothing outlives the loop, then drain the tenants.
        for task in list(connections):
            task.cancel()
        if connections:
            await asyncio.gather(*connections, return_exceptions=True)
        await app.shutdown()


def serve_forever(config: ServerConfig) -> None:
    """Blocking entry point of ``python -m repro.serve``.

    SIGTERM stops the server as Ctrl-C does: the listener closes and every
    tenant drains, so no pool worker or fork server outlives the process.
    """
    app = ServeApp(config)

    async def until_terminated() -> None:
        stop = asyncio.Event()
        try:
            asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
        except NotImplementedError:  # pragma: no cover - Windows event loops
            pass  # Ctrl-C still drains the tenants
        await run_server(app, stop=stop)

    try:
        asyncio.run(until_terminated())
    except KeyboardInterrupt:
        log.info("interrupted; draining tenants")


class ServerHandle:
    """An in-process server on an ephemeral port, for tests and benchmarks.

    ::

        with ServerHandle(ServerConfig(port=0)) as handle:
            client = ServeClient(handle.host, handle.port)
            ...

    The event loop runs in a daemon thread; ``close()`` (or the context
    manager exit) stops the listener, drains every tenant, and joins the
    thread, so pooled workers never outlive the test that started them.
    """

    def __init__(self, config: ServerConfig | None = None):
        self.config = config if config is not None else ServerConfig(port=0)
        self.app = ServeApp(self.config)
        self._ready = threading.Event()
        self._bound: list = []
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._failure: list[BaseException] = []
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=60):
            failure = self._failure[0] if self._failure else None
            raise RuntimeError(f"server failed to boot: {failure!r}")
        if self._failure:
            raise self._failure[0]

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self._stop = asyncio.Event()
        try:
            loop.run_until_complete(
                run_server(
                    self.app, ready=self._ready, bound=self._bound, stop=self._stop
                )
            )
        except BaseException as error:  # noqa: BLE001 - reported to the booter
            self._failure.append(error)
            self._ready.set()
        finally:
            loop.close()

    @property
    def host(self) -> str:
        return self._bound[0][0]

    @property
    def port(self) -> int:
        return self._bound[0][1]

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def close(self) -> None:
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(stop.set)
        self._thread.join(timeout=60)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def parse_bind(value: str) -> tuple[str, int]:
    """Parse ``HOST:PORT`` (the CLI's ``--bind``); port 0 means ephemeral."""
    host, separator, port_text = value.rpartition(":")
    if not separator or not host:
        raise ValueError(f"--bind wants HOST:PORT, got {value!r}")
    return host, int(port_text)


def preload_names(values: Iterable[str]) -> tuple[str, ...]:
    """Normalise repeated/comma-separated ``--preload`` values."""
    names: list[str] = []
    for value in values:
        names.extend(part.strip() for part in value.split(",") if part.strip())
    return tuple(names)
