"""The serving application: routes, handlers, and the metrics exposition.

:class:`ServeApp` is transport-free — it maps parsed
:class:`~repro.serve.protocol.HttpRequest` objects to
:class:`~repro.serve.protocol.HttpResponse` objects over a
:class:`~repro.serve.tenants.TenantManager` — so the endpoint tests can
drive it through a real localhost server while the routing and error
mapping stay unit-testable.  The endpoint reference, the admission-control
semantics and the error vocabulary live in ``docs/serving.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.api.spec import ScenarioSpec
from repro.errors import NetworkError, PartitionError, ReproError
from repro.faults.recovery import RetryPolicy, retry_after_hint
from repro.obs.export import metrics_to_prometheus
from repro.obs.logs import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.serve.protocol import HttpRequest, HttpResponse
from repro.serve.tenants import AdmissionError, TenantManager, parse_changes

log = get_logger("serve")

#: Route label used for requests that match no route (bounds cardinality).
_UNROUTED = "unrouted"


@dataclass(frozen=True)
class ServerConfig:
    """Everything ``python -m repro.serve`` can set from the command line."""

    host: str = "127.0.0.1"
    port: int = 8750
    tenants_dir: Path | None = None
    queue_depth: int = 16
    max_workers: int = 4
    warm: bool = True
    retry_attempts: int = 2
    retry_backoff: float = 0.05
    query_budget_timeout: float = 5.0
    preload: tuple[str, ...] = ()

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy(attempts=self.retry_attempts, backoff=self.retry_backoff)


@dataclass
class _RouteMatch:
    """A matched route: its metrics label plus extracted path parameters."""

    label: str
    tenant: str | None = None
    action: str | None = None
    params: dict[str, str] = field(default_factory=dict)


def match_route(method: str, segments: tuple[str, ...]) -> _RouteMatch | None:
    """Map (method, path segments) onto the serving API's route table."""
    if segments == ("healthz",) and method == "GET":
        return _RouteMatch("healthz")
    if segments == ("metrics",) and method == "GET":
        return _RouteMatch("metrics")
    if segments == ("tenants",):
        if method == "GET":
            return _RouteMatch("tenants.list")
        if method == "POST":
            return _RouteMatch("tenants.create")
        return None
    if len(segments) == 2 and segments[0] == "tenants":
        if method == "GET":
            return _RouteMatch("tenants.status", tenant=segments[1])
        if method == "DELETE":
            return _RouteMatch("tenants.close", tenant=segments[1])
        return None
    if len(segments) == 3 and segments[0] == "tenants":
        tenant, action = segments[1], segments[2]
        table = {
            ("POST", "load"): "tenants.load",
            ("POST", "update"): "tenants.update",
            ("GET", "query"): "tenants.query",
            ("POST", "query"): "tenants.query",
            ("POST", "close"): "tenants.close",
            ("GET", "events"): "tenants.events",
        }
        label = table.get((method, action))
        if label is None:
            return None
        return _RouteMatch(label, tenant=tenant, action=action)
    return None


class ServeApp:
    """Multi-tenant front-end over warm pools (the tentpole of PR 10)."""

    def __init__(self, config: ServerConfig | None = None):
        self.config = config if config is not None else ServerConfig()
        self.manager = TenantManager(
            tenants_dir=self.config.tenants_dir,
            queue_depth=self.config.queue_depth,
            max_workers=self.config.max_workers,
            warm=self.config.warm,
            retry_policy=self.config.retry_policy(),
            query_budget_timeout=self.config.query_budget_timeout,
        )
        self.started_at = time.time()
        self.registry = MetricsRegistry()
        self.registry.describe(
            "repro_serve_requests_total", "HTTP requests by route, method, status."
        )
        self.registry.describe(
            "repro_serve_request_seconds", "Request handling latency by route."
        )
        self.registry.describe(
            "repro_serve_rejections_total", "Admission-control rejections by code."
        )
        self.registry.describe(
            "repro_serve_ws_connections_total", "WebSocket event subscriptions."
        )

    # --------------------------------------------------------------- lifecycle

    async def startup(self) -> None:
        """Preload the tenants named by the configuration (CLI ``--preload``)."""
        names = self.config.preload
        if names == ("all",):
            names = tuple(sorted(self.manager.available_specs()))
        for name in names:
            await self.manager.load(name)

    async def shutdown(self) -> None:
        await self.manager.shutdown()

    # ----------------------------------------------------------------- serving

    async def handle(self, request: HttpRequest) -> HttpResponse:
        """Dispatch one request; never raises (errors become typed responses)."""
        started = time.perf_counter()
        match = match_route(request.method, request.segments)
        try:
            if match is None:
                response = self._not_found(request)
            else:
                response = await self._dispatch(match, request)
        except AdmissionError as error:
            self.registry.counter(
                "repro_serve_rejections_total", {"code": error.code}
            ).inc()
            response = HttpResponse.error(
                error.status, error.code, str(error), retry_after=error.retry_after
            )
        except PartitionError as error:
            # An unhealed partition after the whole retry schedule: the
            # tenant's fleet is reachable again only once the plan heals, so
            # tell the caller when retrying becomes worthwhile.
            self.registry.counter(
                "repro_serve_rejections_total", {"code": "partitioned"}
            ).inc()
            response = HttpResponse.error(
                503,
                "partitioned",
                f"tenant fleet partitioned: {error}",
                retry_after=retry_after_hint(self.manager.retry_policy),
            )
        except NetworkError as error:
            response = HttpResponse.error(
                503,
                "network_error",
                f"run failed after retries: {error}",
                retry_after=retry_after_hint(self.manager.retry_policy),
            )
        except ReproError as error:
            response = HttpResponse.error(400, "bad_request", str(error))
        except Exception as error:  # noqa: BLE001 - the last-resort 500 boundary
            log.exception("unhandled error serving %s %s", request.method, request.path)
            response = HttpResponse.error(
                500, "internal", f"{type(error).__name__}: {error}"
            )
        label = match.label if match is not None else _UNROUTED
        self.registry.counter(
            "repro_serve_requests_total",
            {
                "route": label,
                "method": request.method,
                "status": str(response.status),
            },
        ).inc()
        self.registry.histogram(
            "repro_serve_request_seconds", {"route": label}
        ).observe(time.perf_counter() - started)
        return response

    async def _dispatch(
        self, match: _RouteMatch, request: HttpRequest
    ) -> HttpResponse:
        if match.label == "healthz":
            return self._healthz()
        if match.label == "metrics":
            return HttpResponse.text(
                200,
                self.metrics_exposition(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        if match.label == "tenants.list":
            return HttpResponse.json(200, {"tenants": self.manager.listing()})
        if match.label == "tenants.create":
            return await self._create(request)
        if match.label == "tenants.status":
            return HttpResponse.json(200, self.manager.get(match.tenant).describe())
        if match.label == "tenants.load":
            return await self._load(match.tenant, request)
        if match.label == "tenants.close":
            return HttpResponse.json(200, await self.manager.close(match.tenant))
        if match.label == "tenants.update":
            return await self._update(match.tenant, request)
        if match.label == "tenants.query":
            return await self._query(match.tenant, request)
        if match.label == "tenants.events":
            # Reached only when the events route is hit *without* a
            # WebSocket upgrade; the server intercepts upgrades earlier.
            return HttpResponse.error(
                426,
                "upgrade_required",
                "GET /tenants/{name}/events is a WebSocket endpoint",
            )
        raise AssertionError(f"unrouted label {match.label}")  # pragma: no cover

    # ---------------------------------------------------------------- handlers

    def _not_found(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse.error(
            404, "unknown_route", f"no route for {request.method} {request.path}"
        )

    def _healthz(self) -> HttpResponse:
        states: dict[str, int] = {}
        for row in self.manager.listing():
            states[row["state"]] = states.get(row["state"], 0) + 1
        status = "draining" if self.manager.draining else "ok"
        return HttpResponse.json(
            200 if status == "ok" else 503,
            {
                "status": status,
                "uptime_seconds": round(time.time() - self.started_at, 3),
                "tenants": states,
                "worker_budget": self.manager.max_workers,
            },
        )

    async def _create(self, request: HttpRequest) -> HttpResponse:
        document = request.json()
        if not isinstance(document, dict) or "name" not in document:
            raise ReproError('POST /tenants expects {"name": ..., "spec": {...}}')
        name = str(document["name"])
        spec_document = document.get("spec")
        if spec_document is None:
            raise ReproError(f'tenant {name!r} needs an inline "spec" document')
        try:
            spec = ScenarioSpec.load_json(_as_spec_text(spec_document))
        except ReproError as error:
            raise AdmissionError(400, "bad_spec", str(error))
        warm = document.get("warm")
        if warm is not None and not isinstance(warm, bool):
            raise ReproError('"warm" must be a boolean')
        tenant = await self.manager.create(name, spec, warm=warm)
        return HttpResponse.json(201, tenant.describe())

    async def _load(self, name: str, request: HttpRequest) -> HttpResponse:
        document = request.json()
        warm = document.get("warm") if isinstance(document, dict) else None
        if warm is not None and not isinstance(warm, bool):
            raise ReproError('"warm" must be a boolean')
        tenant = await self.manager.load(name, warm=warm)
        return HttpResponse.json(201, tenant.describe())

    async def _update(self, name: str, request: HttpRequest) -> HttpResponse:
        changes = parse_changes(request.json())
        tenant = self.manager.get(name)
        tenant.validate_changes(changes)
        future = self.manager.submit_update(name, changes)
        outcome = await future
        return HttpResponse.json(
            200,
            {
                "tenant": name,
                "phase": "update",
                "mode": outcome.mode,
                "completion_time": outcome.completion_time,
                "wall_seconds": round(outcome.wall_seconds, 6),
                "tuples_added": outcome.tuples_added,
                "messages": outcome.messages,
                "incremental": outcome.incremental,
            },
        )

    async def _query(self, name: str, request: HttpRequest) -> HttpResponse:
        if request.method == "GET":
            node = request.param("node")
            query_text = request.param("q")
        else:
            document = request.json()
            if not isinstance(document, dict):
                raise ReproError('POST query expects {"node": ..., "query": ...}')
            node = document.get("node")
            query_text = document.get("query") or document.get("q")
        if not node or not query_text:
            raise ReproError(
                "a query needs a node and a query string "
                "(?node=a&q=ans(X) :- item(X, Y))"
            )
        started = time.perf_counter()
        answers = await self.manager.run_query(name, str(node), str(query_text))
        return HttpResponse.json(
            200,
            {
                "tenant": name,
                "node": node,
                "query": query_text,
                "answers": answers,
                "count": len(answers),
                "wall_seconds": round(time.perf_counter() - started, 6),
            },
        )

    # ----------------------------------------------------------------- metrics

    def metrics_exposition(self) -> str:
        """The ``/metrics`` document: server + every tenant, one registry.

        Each ready tenant's :meth:`Session.metrics_registry
        <repro.api.session.Session.metrics_registry>` — what its
        ``export_metrics`` renders: message, incremental, fault and A6 chase
        counters, span histograms, run gauges — is folded in with a
        ``tenant`` label, the same relabelling a Prometheus federation of
        per-tenant exporters would produce, alongside the server's own
        request/rejection/queue series.
        """
        registry = MetricsRegistry()
        registry.merge(self.registry.dump())
        registry.describe(
            "repro_serve_uptime_seconds", "Seconds since the server booted."
        )
        registry.gauge("repro_serve_uptime_seconds").set(
            round(time.time() - self.started_at, 3)
        )
        registry.describe(
            "repro_serve_tenants", "Loaded tenants by lifecycle state."
        )
        registry.describe(
            "repro_serve_queue_depth", "Pending updates in each tenant's queue."
        )
        registry.describe(
            "repro_serve_runs_completed_total", "Update runs completed per tenant."
        )
        states: dict[str, int] = {}
        for row in self.manager.listing():
            states[row["state"]] = states.get(row["state"], 0) + 1
        for state, count in sorted(states.items()):
            registry.gauge("repro_serve_tenants", {"state": state}).set(count)
        for name, tenant in sorted(self.manager.tenants.items()):
            registry.gauge("repro_serve_queue_depth", {"tenant": name}).set(
                tenant.queue_depth
            )
            registry.counter(
                "repro_serve_runs_completed_total", {"tenant": name}
            ).value = tenant.runs_completed
            if tenant.session is not None:
                registry.merge(
                    tenant.session.metrics_registry().dump(),
                    extra_labels={"tenant": name},
                )
        return metrics_to_prometheus(registry)


def _as_spec_text(document: Any) -> str:
    """Inline spec documents arrive as JSON objects; the loader wants text."""
    import json

    return json.dumps(document)
