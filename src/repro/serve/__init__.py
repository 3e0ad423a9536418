"""The multi-tenant serving front-end over warm pools.

``python -m repro.serve --bind 127.0.0.1:8750 --tenants scenarios/`` turns
the library into a long-running service: each *tenant* is one named
:class:`~repro.api.spec.ScenarioSpec` network kept warm behind a pooled
engine, updated through ``POST /tenants/{name}/update`` (change sets
that only insert or remove rows ride the incremental evaluation path),
queried concurrently through ``/tenants/{name}/query``, observed via
``/metrics`` (Prometheus, one
``tenant`` label per fleet member) and a per-tenant WebSocket event channel.
The full endpoint reference, the admission-control contract and a curl
walkthrough live in ``docs/serving.md``.

The package splits along the same seams as the rest of the codebase:
:mod:`~repro.serve.protocol` (the stdlib HTTP/WS wire layer),
:mod:`~repro.serve.tenants` (lifecycle, queues, budget — transport-free),
:mod:`~repro.serve.app` (routing and error mapping),
:mod:`~repro.serve.server` (the asyncio loop and the in-process
:class:`ServerHandle`), and :mod:`~repro.serve.client` (the synchronous
client the tests and the closed-loop benchmark drive).
"""

from repro.serve.app import ServeApp, ServerConfig
from repro.serve.client import EventStream, ServeClient, ServeError
from repro.serve.protocol import HttpRequest, HttpResponse, ProtocolViolation
from repro.serve.server import ServerHandle, parse_bind, serve_forever
from repro.serve.tenants import (
    AdmissionError,
    Tenant,
    TenantManager,
    parse_changes,
    warm_spec,
)

__all__ = [
    "AdmissionError",
    "EventStream",
    "HttpRequest",
    "HttpResponse",
    "ProtocolViolation",
    "ServeApp",
    "ServeClient",
    "ServeError",
    "ServerConfig",
    "ServerHandle",
    "Tenant",
    "TenantManager",
    "parse_bind",
    "parse_changes",
    "serve_forever",
    "warm_spec",
]
