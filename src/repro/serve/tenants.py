"""Tenants: named scenario networks kept warm behind the serving front-end.

A :class:`Tenant` wraps one :class:`~repro.api.session.Session` — by default
re-targeted onto a :class:`~repro.sharding.process.ProcessEngine`
(``pooled`` or ``socket``), so worker processes persist between requests
and updates that only insert or remove rows take the delta-driven path of
``docs/incremental.md``.
A :class:`TenantManager` owns the fleet: lifecycle (``available`` → ``loading``
→ ``ready`` → ``closed``), the per-tenant serialized update queue with its
bounded depth, the global worker-budget semaphore, and the per-tenant event
bus the WebSocket channel drains.

Admission control contract (documented in ``docs/serving.md``):

* updates to one tenant are strictly serialized through a bounded queue —
  a full queue rejects with a typed 429, never blocks the caller;
* read-only queries run concurrently with each other and are excluded from
  running updates by a per-tenant read/write lock, so a query always sees a
  converged database, never a half-merged one;
* at most ``max_workers`` engine runs execute at once across all tenants
  (the worker-budget semaphore); queries borrow budget with a short timeout
  and reject 503 rather than queueing unboundedly.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.api.session import Session
from repro.api.spec import ScenarioSpec
from repro.coordination.changeset import Change
from repro.coordination.rule import NodeId
from repro.errors import NetworkError, PartitionError, ReproError
from repro.faults.recovery import RetryPolicy, retry_after_hint, retry_call
from repro.obs.logs import get_logger

log = get_logger("serve")

#: Tenant lifecycle states (the state machine in docs/serving.md).
AVAILABLE = "available"
LOADING = "loading"
READY = "ready"
CLOSED = "closed"


class AdmissionError(ReproError):
    """A request was rejected by admission control, with an HTTP mapping."""

    def __init__(
        self, status: int, code: str, message: str, *, retry_after: float = 1.0
    ):
        super().__init__(message)
        self.status = status
        self.code = code
        self.retry_after = retry_after


class _ReadWriteLock:
    """A writer-preferring read/write lock over one tenant's databases.

    Updates (writers) are already serialized by the tenant queue, so at most
    one writer ever waits; a waiting writer blocks *new* readers, keeping
    query traffic from starving updates indefinitely.
    """

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._condition:
            while self._writer or self._writers_waiting:
                self._condition.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._condition:
            self._readers -= 1
            if not self._readers:
                self._condition.notify_all()

    def acquire_write(self) -> None:
        with self._condition:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._condition.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._condition:
            self._writer = False
            self._condition.notify_all()


# ------------------------------------------------------------------- changes

#: An update request body → its :class:`~repro.coordination.changeset.Change`.
parse_changes = Change.from_json


def warm_spec(spec: ScenarioSpec) -> ScenarioSpec:
    """Re-target a ``sync`` spec onto the ``pooled`` engine.

    Served tenants answer many requests over one network, so they run on
    worker processes that persist between requests.  A partitioned spec
    (``pooled`` or ``socket``) keeps them already and passes through
    unchanged.
    """
    if spec.transport != "sync":
        return spec
    shards = spec.shards if spec.shards else min(2, max(1, spec.node_count))
    return spec.with_(transport="pooled", shards=shards)


# -------------------------------------------------------------------- tenant


@dataclass
class UpdateOutcome:
    """What one serialized update run did (the update response body)."""

    mode: str
    completion_time: float
    wall_seconds: float
    tuples_added: int
    messages: int
    incremental: dict[str, int]
    spans: list[dict]


class Tenant:
    """One named, warm scenario network plus its serving bookkeeping."""

    def __init__(
        self,
        name: str,
        spec: ScenarioSpec,
        *,
        queue_depth: int,
        source: str = "inline",
    ):
        self.name = name
        self.spec = spec
        self.source = source
        self.state = LOADING
        self.session: Session | None = None
        self.created_at = time.time()
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=queue_depth)
        self.worker: asyncio.Task | None = None
        self.subscribers: set[asyncio.Queue] = set()
        self.lock = _ReadWriteLock()
        self.runs_completed = 0
        self.updates_accepted = 0
        self.updates_rejected = 0
        self.updates_failed = 0
        self.queries_answered = 0
        self.last_error: str | None = None
        #: Test seam: called in the worker thread before each update run, so
        #: the admission-control suite can hold the queue at a known depth.
        self._pre_run_hook: Callable[[], None] | None = None

    # ------------------------------------------------------------- inspection

    @property
    def queue_depth(self) -> int:
        return self.queue.qsize()

    def describe(self) -> dict[str, Any]:
        """The status document of ``GET /tenants/{name}``."""
        document: dict[str, Any] = {
            "name": self.name,
            "state": self.state,
            "source": self.source,
            "queue_depth": self.queue_depth,
            "runs_completed": self.runs_completed,
            "updates_accepted": self.updates_accepted,
            "updates_rejected": self.updates_rejected,
            "updates_failed": self.updates_failed,
            "queries_answered": self.queries_answered,
        }
        if self.session is not None:
            system = self.session.system
            document.update(
                engine=self.session.engine.name,
                nodes=len(system.nodes),
                rules=len(list(system.registry)),
                total_rows=sum(
                    node.database.total_rows() for node in system.nodes.values()
                ),
                super_peer=system.super_peer,
            )
        if self.last_error:
            document["last_error"] = self.last_error
        return document

    def validate_changes(self, changes: Change) -> None:
        """Reject changes that cannot apply, before they are queued.

        A failed :meth:`Change.check <repro.coordination.changeset.Change.check>`
        (``T001`` included) is a synchronous 400 at admission, not a failure
        deep inside the serialized worker.
        """
        session = self.session
        if session is None:
            raise AdmissionError(503, "not_ready", f"tenant {self.name} not ready")
        changes.check(session.system)

    # ------------------------------------------------- blocking work (threads)

    def open_session(self) -> None:
        """Build the session and converge the network (worker thread)."""
        session = Session.from_spec(self.spec, trace=True)
        try:
            # One cold run brings every relation to its fix-point, so the
            # next rows-only update can take the delta path.
            session.run("update")
            if session.tracer is not None:
                session.tracer.drain()
        except BaseException:
            session.close()
            raise
        self.session = session

    def run_update(self, changes: Change, retry_policy: RetryPolicy) -> UpdateOutcome:
        """Apply ``changes`` and drive the network back to its fix-point.

        Runs in a worker thread under the tenant's *write* lock.  The change
        applies whole or not at all (a rejected one raises
        :class:`~repro.errors.ChangeError` before any mutation).  Transient
        :class:`NetworkError`\\ s retry per ``retry_policy`` on top of
        whatever cold-re-run budget the engine itself holds; the typed
        final failure propagates to the handler (a
        :class:`~repro.errors.PartitionError` becomes 503 + Retry-After).
        """
        if self._pre_run_hook is not None:
            self._pre_run_hook()
        session = self.session
        if session is None:
            raise AdmissionError(503, "not_ready", f"tenant {self.name} not ready")
        self.lock.acquire_write()
        try:
            system = session.system
            changes.apply(system)
            before = system.stats.incremental_totals()
            sent = system.stats.messages.total_messages
            result = retry_call(
                lambda: session.run("update"),
                policy=retry_policy,
                retryable=(NetworkError,),
            )
            after = system.stats.incremental_totals()
            incremental = {
                name: int(after[name] - before.get(name, 0)) for name in after
            }
            spans = []
            if session.tracer is not None:
                spans = [
                    {
                        "name": record["name"],
                        "process": record.get("process", "coordinator"),
                        "start": record["start"],
                        "end": record["end"],
                    }
                    for record in session.tracer.drain()
                ]
            self.runs_completed += 1
            return UpdateOutcome(
                mode=result.mode,
                completion_time=result.completion_time,
                wall_seconds=result.wall_seconds,
                tuples_added=result.tuples_added,
                messages=result.stats.total_messages - sent,
                incremental=incremental,
                spans=spans,
            )
        finally:
            self.lock.release_write()

    def answer_query(self, node_id: NodeId, query_text: str) -> list[list]:
        """Answer one read-only query (worker thread, shared read lock)."""
        session = self.session
        if session is None:
            raise AdmissionError(503, "not_ready", f"tenant {self.name} not ready")
        self.lock.acquire_read()
        try:
            answers = session.query(node_id, query_text)
        finally:
            self.lock.release_read()
        self.queries_answered += 1
        return sorted([list(row) for row in answers])

    def close_session(self) -> None:
        """Stop the warm pool (worker thread; idempotent)."""
        if self.session is not None:
            self.session.close()


# ------------------------------------------------------------------- manager


class TenantManager:
    """The tenant fleet: lifecycle, queues, budget, and the event bus."""

    def __init__(
        self,
        *,
        tenants_dir: Path | None = None,
        queue_depth: int = 16,
        max_workers: int = 4,
        warm: bool = True,
        retry_policy: RetryPolicy | None = None,
        query_budget_timeout: float = 5.0,
    ):
        self.tenants_dir = Path(tenants_dir) if tenants_dir is not None else None
        self.queue_depth = queue_depth
        self.max_workers = max_workers
        self.warm = warm
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy(attempts=2)
        )
        self.query_budget_timeout = query_budget_timeout
        self.tenants: dict[str, Tenant] = {}
        self.draining = False
        self._budget = asyncio.Semaphore(max_workers)
        # Engine runs + queries + lifecycle work all execute here; a couple
        # of spare threads beyond the run budget keep queries moving while
        # every budget slot is busy.
        self.executor = ThreadPoolExecutor(
            max_workers=max_workers + 4, thread_name_prefix="repro-serve"
        )

    # ------------------------------------------------------------- directory

    def available_specs(self) -> dict[str, Path]:
        """``name -> path`` for every loadable spec in the tenants dir."""
        if self.tenants_dir is None or not self.tenants_dir.is_dir():
            return {}
        return {
            path.stem: path for path in sorted(self.tenants_dir.glob("*.json"))
        }

    def listing(self) -> list[dict[str, Any]]:
        """The ``GET /tenants`` document: loaded tenants + loadable specs."""
        rows = [tenant.describe() for tenant in self.tenants.values()]
        loaded = set(self.tenants)
        for name in sorted(set(self.available_specs()) - loaded):
            rows.append({"name": name, "state": AVAILABLE, "source": "dir"})
        return sorted(rows, key=lambda row: row["name"])

    def get(self, name: str) -> Tenant:
        tenant = self.tenants.get(name)
        if tenant is None:
            raise AdmissionError(404, "unknown_tenant", f"no tenant {name!r}")
        return tenant

    # -------------------------------------------------------------- lifecycle

    async def create(
        self, name: str, spec: ScenarioSpec, *, warm: bool | None = None
    ) -> Tenant:
        """Boot a tenant from an inline spec (``POST /tenants``)."""
        return await self._boot(name, spec, warm=warm, source="inline")

    async def load(self, name: str, *, warm: bool | None = None) -> Tenant:
        """Boot a tenant from the tenants dir (``POST /tenants/{name}/load``)."""
        path = self.available_specs().get(name)
        if path is None:
            raise AdmissionError(
                404, "unknown_tenant", f"no spec {name}.json in the tenants dir"
            )
        spec = ScenarioSpec.load_json(path)
        return await self._boot(name, spec, warm=warm, source=str(path))

    async def _boot(
        self, name: str, spec: ScenarioSpec, *, warm: bool | None, source: str
    ) -> Tenant:
        if self.draining:
            raise AdmissionError(503, "draining", "server is shutting down")
        if not name or "/" in name:
            raise AdmissionError(400, "bad_name", f"invalid tenant name {name!r}")
        if name in self.tenants:
            raise AdmissionError(
                409, "tenant_exists", f"tenant {name!r} is already loaded"
            )
        use_warm = self.warm if warm is None else warm
        if use_warm:
            spec = warm_spec(spec)
        tenant = Tenant(name, spec, queue_depth=self.queue_depth, source=source)
        self.tenants[name] = tenant
        loop = asyncio.get_running_loop()
        try:
            async with self._budget:
                await loop.run_in_executor(self.executor, tenant.open_session)
        except BaseException as error:
            self.tenants.pop(name, None)
            tenant.state = CLOSED
            if isinstance(error, ReproError):
                raise AdmissionError(400, "bad_spec", str(error))
            raise
        tenant.state = READY
        tenant.worker = loop.create_task(self._tenant_worker(tenant))
        self.publish(tenant, {"type": "lifecycle", "event": "ready"})
        log.info("tenant %s ready (%d nodes)", name, len(tenant.spec.schemas))
        return tenant

    async def close(self, name: str) -> dict[str, Any]:
        """Close a tenant: drain its queue, stop its pool, drop it."""
        tenant = self.get(name)
        tenant.state = CLOSED
        if tenant.worker is not None:
            tenant.worker.cancel()
            try:
                await tenant.worker
            except asyncio.CancelledError:
                pass
        while not tenant.queue.empty():
            _changes, future = tenant.queue.get_nowait()
            if not future.done():
                future.set_exception(
                    AdmissionError(503, "tenant_closed", f"tenant {name} closed")
                )
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(self.executor, tenant.close_session)
        self.publish(tenant, {"type": "lifecycle", "event": "closed"})
        self.tenants.pop(name, None)
        log.info("tenant %s closed", name)
        return {"name": name, "state": CLOSED}

    async def shutdown(self) -> None:
        """Close every tenant and refuse new work (server shutdown path)."""
        self.draining = True
        for name in list(self.tenants):
            await self.close(name)
        self.executor.shutdown(wait=False)

    # ----------------------------------------------------- updates and queries

    def submit_update(self, name: str, changes: Change) -> asyncio.Future:
        """Enqueue one update; returns the future its outcome resolves.

        Raises a typed 429 :class:`AdmissionError` when the tenant's bounded
        queue is full — the caller gets the rejection immediately instead of
        a hang, which is the admission-control contract the overload test
        pins down.
        """
        if self.draining:
            raise AdmissionError(503, "draining", "server is shutting down")
        tenant = self.get(name)
        if tenant.state != READY:
            raise AdmissionError(
                503, "not_ready", f"tenant {name} is {tenant.state}"
            )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        try:
            tenant.queue.put_nowait((changes, future))
        except asyncio.QueueFull:
            tenant.updates_rejected += 1
            raise AdmissionError(
                429,
                "queue_full",
                f"tenant {name} update queue is at its bound "
                f"({tenant.queue.maxsize}); retry later",
                retry_after=retry_after_hint(self.retry_policy),
            )
        tenant.updates_accepted += 1
        return future

    async def run_query(self, name: str, node_id: str, query_text: str) -> list:
        """Run one read-only query under the worker budget."""
        tenant = self.get(name)
        if tenant.state != READY:
            raise AdmissionError(
                503, "not_ready", f"tenant {name} is {tenant.state}"
            )
        try:
            await asyncio.wait_for(
                self._budget.acquire(), timeout=self.query_budget_timeout
            )
        except asyncio.TimeoutError:
            raise AdmissionError(
                503,
                "busy",
                "worker budget exhausted; retry later",
                retry_after=retry_after_hint(self.retry_policy),
            )
        try:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                self.executor, tenant.answer_query, node_id, query_text
            )
        finally:
            self._budget.release()

    async def _tenant_worker(self, tenant: Tenant) -> None:
        """The per-tenant serializer: pop, run under budget, resolve, publish."""
        loop = asyncio.get_running_loop()
        while True:
            changes, future = await tenant.queue.get()
            if future.cancelled():
                continue
            try:
                async with self._budget:
                    outcome = await loop.run_in_executor(
                        self.executor,
                        tenant.run_update,
                        changes,
                        self.retry_policy,
                    )
            except BaseException as error:
                if isinstance(error, asyncio.CancelledError):
                    if not future.done():
                        future.set_exception(
                            AdmissionError(
                                503, "tenant_closed", f"tenant {tenant.name} closed"
                            )
                        )
                    raise
                tenant.updates_failed += 1
                tenant.last_error = f"{type(error).__name__}: {error}"
                self.publish(
                    tenant,
                    {
                        "type": "run",
                        "phase": "update",
                        "outcome": "error",
                        "error": tenant.last_error,
                    },
                )
                if not future.done():
                    future.set_exception(error)
            else:
                self.publish(
                    tenant,
                    {
                        "type": "run",
                        "phase": "update",
                        "outcome": "ok",
                        "mode": outcome.mode,
                        "completion_time": outcome.completion_time,
                        "wall_seconds": outcome.wall_seconds,
                        "tuples_added": outcome.tuples_added,
                        "messages": outcome.messages,
                        "spans": outcome.spans,
                    },
                )
                if not future.done():
                    future.set_result(outcome)

    # -------------------------------------------------------------- event bus

    def subscribe(self, name: str) -> asyncio.Queue:
        """A bounded event queue for one WebSocket subscriber."""
        tenant = self.get(name)
        queue: asyncio.Queue = asyncio.Queue(maxsize=256)
        tenant.subscribers.add(queue)
        return queue

    def unsubscribe(self, name: str, queue: asyncio.Queue) -> None:
        tenant = self.tenants.get(name)
        if tenant is not None:
            tenant.subscribers.discard(queue)

    def publish(self, tenant: Tenant, event: dict[str, Any]) -> None:
        """Fan one event out to the tenant's subscribers (never blocks).

        A subscriber that stopped draining its queue loses events rather
        than stalling the run loop — the channel is telemetry, not a log.
        """
        document = {"tenant": tenant.name, "time": time.time(), **event}
        for queue in list(tenant.subscribers):
            try:
                queue.put_nowait(document)
            except asyncio.QueueFull:
                pass
