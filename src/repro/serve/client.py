"""A small synchronous client for the serving API (stdlib only).

:class:`ServeClient` wraps ``http.client`` with the serving API's JSON
conventions — typed :class:`ServeError` on 4xx/5xx carrying the error code
and any ``Retry-After`` hint — and is what the integration tests, the
closed-loop benchmark driver and the quickstart example all use.
:class:`EventStream` speaks just enough RFC 6455 to follow one tenant's
event channel.
"""

from __future__ import annotations

import base64
import http.client
import json
import os
import socket
from typing import Any, Iterator, Mapping

from repro.errors import ReproError
from repro.serve.protocol import (
    WS_CLOSE,
    WS_PING,
    WS_PONG,
    WS_TEXT,
    build_frame,
    parse_frame,
    websocket_accept,
)


class ServeError(ReproError):
    """A non-2xx response, with its status, error code and retry hint."""

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        *,
        retry_after: float | None = None,
    ):
        super().__init__(f"[{status} {code}] {message}")
        self.status = status
        self.code = code
        self.retry_after = retry_after


class ServeClient:
    """One keep-alive connection to a serving front-end."""

    def __init__(self, host: str, port: int, *, timeout: float = 60.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._connection: http.client.HTTPConnection | None = None

    # ------------------------------------------------------------------ wire

    def request(
        self,
        method: str,
        path: str,
        document: Mapping[str, Any] | None = None,
    ) -> dict[str, Any]:
        """One request/response; JSON in, JSON out, :class:`ServeError` out."""
        body = None
        headers = {}
        if document is not None:
            body = json.dumps(document).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = self._connect()
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            payload = response.read()
        except (http.client.HTTPException, OSError):
            # One reconnect on a dropped keep-alive connection, then give up.
            self.close()
            connection = self._connect()
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            payload = response.read()
        if response.status >= 400:
            self._raise(response, payload)
        if not payload:
            return {}
        if response.headers.get_content_type() == "application/json":
            return json.loads(payload.decode("utf-8"))
        return {"text": payload.decode("utf-8")}

    def _connect(self) -> http.client.HTTPConnection:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._connection

    def _raise(self, response: http.client.HTTPResponse, payload: bytes) -> None:
        code, message = "error", payload.decode("utf-8", "replace").strip()
        try:
            document = json.loads(payload.decode("utf-8"))
            code = document["error"]["code"]
            message = document["error"]["message"]
        except (ValueError, KeyError, TypeError):
            pass
        retry_after = None
        header = response.headers.get("Retry-After")
        if header is not None:
            try:
                retry_after = float(header)
            except ValueError:
                pass
        raise ServeError(
            response.status, code, message, retry_after=retry_after
        )

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------- endpoints

    def healthz(self) -> dict[str, Any]:
        return self.request("GET", "/healthz")

    def metrics(self) -> str:
        """The Prometheus exposition as text."""
        return self.request("GET", "/metrics")["text"]

    def tenants(self) -> list[dict[str, Any]]:
        return self.request("GET", "/tenants")["tenants"]

    def create_tenant(
        self,
        name: str,
        spec_document: Mapping[str, Any],
        *,
        warm: bool | None = None,
    ) -> dict[str, Any]:
        body: dict[str, Any] = {"name": name, "spec": spec_document}
        if warm is not None:
            body["warm"] = warm
        return self.request("POST", "/tenants", body)

    def load_tenant(self, name: str, *, warm: bool | None = None) -> dict[str, Any]:
        body = {} if warm is None else {"warm": warm}
        return self.request("POST", f"/tenants/{name}/load", body)

    def status(self, name: str) -> dict[str, Any]:
        return self.request("GET", f"/tenants/{name}")

    def update(
        self,
        name: str,
        *,
        inserts: Mapping[str, Mapping[str, list]] | None = None,
        removes: Mapping[str, Mapping[str, list]] | None = None,
        add_rules: list[str] | None = None,
        remove_rules: list[str] | None = None,
    ) -> dict[str, Any]:
        fields = zip(
            ("inserts", "removes", "add_rules", "remove_rules"),
            (inserts, removes, add_rules, remove_rules),
        )
        body = {key: value for key, value in fields if value}
        return self.request("POST", f"/tenants/{name}/update", body)

    def query(self, name: str, node: str, query_text: str) -> dict[str, Any]:
        return self.request(
            "POST", f"/tenants/{name}/query", {"node": node, "query": query_text}
        )

    def close_tenant(self, name: str) -> dict[str, Any]:
        return self.request("POST", f"/tenants/{name}/close", {})

    def events(self, name: str, *, timeout: float = 30.0) -> "EventStream":
        """Open the tenant's WebSocket event channel."""
        return EventStream(self.host, self.port, name, timeout=timeout)


class EventStream:
    """A blocking reader over one tenant's ``/events`` WebSocket channel."""

    def __init__(self, host: str, port: int, tenant: str, *, timeout: float = 30.0):
        self.tenant = tenant
        self._socket = socket.create_connection((host, port), timeout=timeout)
        key = base64.b64encode(os.urandom(16)).decode("latin-1")
        handshake = (
            f"GET /tenants/{tenant}/events HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {key}\r\n"
            "Sec-WebSocket-Version: 13\r\n"
            "\r\n"
        )
        self._socket.sendall(handshake.encode("latin-1"))
        response = self._read_handshake()
        status_line, _, header_block = response.partition("\r\n")
        if " 101 " not in status_line:
            self._socket.close()
            raise ServeError(
                int(status_line.split()[1]) if status_line.split()[1:] else 500,
                "handshake_failed",
                f"WebSocket upgrade refused: {status_line.strip()}",
            )
        expected = websocket_accept(key)
        accepted = ""
        for line in header_block.split("\r\n"):
            name, _, value = line.partition(":")
            if name.strip().lower() == "sec-websocket-accept":
                accepted = value.strip()
        if accepted != expected:
            self._socket.close()
            raise ServeError(
                500, "handshake_failed", "Sec-WebSocket-Accept mismatch"
            )

    def _read_handshake(self) -> str:
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = self._socket.recv(4096)
            if not chunk:
                raise ServeError(500, "handshake_failed", "connection closed")
            data = data + chunk
        head, _, rest = data.partition(b"\r\n\r\n")
        self._buffered = rest
        return head.decode("latin-1")

    def _read_exact(self, n: int) -> bytes:
        data = self._buffered[:n]
        self._buffered = self._buffered[n:]
        while len(data) < n:
            chunk = self._socket.recv(n - len(data))
            if not chunk:
                raise ServeError(500, "stream_closed", "connection closed mid frame")
            data += chunk
        return data

    def __iter__(self) -> Iterator[dict[str, Any]]:
        """Yield event documents until the server closes the channel."""
        while True:
            event = self.next_event()
            if event is None:
                return
            yield event

    def next_event(self) -> dict[str, Any] | None:
        """The next event document; ``None`` once the channel closes."""
        while True:
            opcode, payload = parse_frame(self._read_exact)
            if opcode == WS_TEXT:
                return json.loads(payload.decode("utf-8"))
            if opcode == WS_PING:
                self._socket.sendall(build_frame(WS_PONG, payload, mask=True))
                continue
            if opcode == WS_CLOSE:
                try:
                    self._socket.sendall(
                        build_frame(WS_CLOSE, payload[:2], mask=True)
                    )
                except OSError:
                    pass
                return None
            # Pongs and binary frames are ignored.

    def close(self) -> None:
        try:
            self._socket.sendall(build_frame(WS_CLOSE, b"\x03\xe8", mask=True))
        except OSError:
            pass
        self._socket.close()

    def __enter__(self) -> "EventStream":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
