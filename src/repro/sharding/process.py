"""The process-backed engine: one engine over one pool of long-lived workers.

``pooled`` and ``socket`` are one engine.  What differs between them is
data on the coordinator's transport handle:

* :class:`ProcessTransport` carries the run configuration — ``kind`` is the
  registry name and says what carries the channels to the shard workers
  (``"pooled"``: fork-server children on this box; ``"socket"``: TCP shard
  hosts, with ``hosts``) — and adopts the shard plan.  It never delivers a
  message itself.
* :class:`ProcessEngine` implements the
  :class:`~repro.api.engine.ExecutionEngine` protocol: it plans the
  partition, brings a :class:`~repro.sharding.pool.ShardPool` up over the
  live system (or hands the running one the change the session read),
  drives the phase to distributed quiescence, and merges what the workers
  gained — new rows, changed protocol state, statistics — into the
  coordinator's system so ``Session.run`` / parity checks / experiments read
  one consistent picture.
  The workers live as long as the engine, so a
  :class:`~repro.api.session.Session` holding it keeps them, with their
  databases and protocol state, across ``session.run(...)`` calls — close the
  session (or the engine) to stop them.

The engine owns the pool's lifecycle: the first run spawns it, a crashed
worker or dead host fails the run at once (its pipe or link is lost) and the
pool is respawned cold on the next run — reconnecting, and reviving
auto-spawned localhost hosts that died.  The partition is fixed at bring-up:
the network changes only through ``addLink`` / ``deleteLink``, and a rule
edit reaches the running workers as the change's ``add_rules`` /
``remove_rules``.  Only a peer the plan does not cover (one added after
bring-up) re-plans, and so respawns the pool.  Whether an update extends the
last fix-point is each worker's call (:func:`repro.api.engine.start_run`);
a respawned pool's workers hold no update yet, so they run naive.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.api.engine import PHASES, finalize_phase, reset_discovery
from repro.coordination.changeset import Change
from repro.coordination.rule import NodeId
from repro.errors import NetworkError, ReproError
from repro.faults.injector import injector_of
from repro.network.latency import LatencyModel
from repro.network.message import Message
from repro.network.transport import BaseTransport
from repro.obs import get_logger, tracer_of
from repro.sharding.planner import ShardPlan, ShardPlanner
from repro.sharding.pool import ShardPool, WorkerPool
from repro.sharding.sockets import LocalHostCluster, SocketPool, parse_address
from repro.stats.collector import StatisticsCollector, StatsSnapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports us)
    from repro.core.system import P2PSystem

_log = get_logger("process")


class ProcessTransport(BaseTransport):
    """Coordinator-side handle of a process-backed sharded run.

    It registers the system's peers like any transport (so the substrate
    builds unchanged) but never delivers: execution happens in the shard
    workers that :class:`ProcessEngine` reaches through its pool.  ``hosts``
    is the list of ``"HOST:PORT"`` shard-host addresses a ``"socket"``
    transport dials (shards are assigned round-robin across them); ``None``
    means *auto-spawn* — the engine brings up one localhost host per shard
    on the first run and owns their lifecycle.  ``shard_count`` defaults to
    one shard per host, else 2.
    """

    def __init__(
        self,
        kind: str = "pooled",
        shard_count: int | None = None,
        *,
        hosts: Sequence[str] | None = None,
        latency: LatencyModel | None = None,
        stats: StatisticsCollector | None = None,
        max_messages: int = 1_000_000,
    ):
        if kind not in ("pooled", "socket"):
            raise ReproError(
                f"unknown process transport kind {kind!r}; "
                "expected 'pooled' or 'socket'"
            )
        if hosts and kind != "socket":
            raise ReproError(f"hosts= needs transport='socket', not {kind!r}")
        if shard_count is None:
            shard_count = len(hosts) if hosts else 2
        if shard_count < 1:
            raise NetworkError(f"a {kind} transport needs at least one shard")
        super().__init__(latency=latency, stats=stats)
        self.kind = kind
        self.shard_count = shard_count
        self.max_messages = max_messages
        self.hosts: tuple[str, ...] | None = tuple(hosts) if hosts else None
        self.plan: ShardPlan | None = None
        for address in self.hosts or ():
            parse_address(address)  # fail at build time, not first run
        if self.hosts and len(set(self.hosts)) != len(self.hosts):
            # A host serves one coordinator connection at a time, so a
            # duplicate entry would sit unanswered in its listen backlog
            # until the worker timeout.  Two workers on one box is already
            # expressible: list the host once and raise shards.
            raise NetworkError(
                f"duplicate shard-host addresses in {self.hosts}; list each "
                "host once (shards are assigned round-robin across them)"
            )

    def apply_plan(self, plan: ShardPlan) -> None:
        """Adopt a shard plan covering every registered peer."""
        if plan.shard_count > self.shard_count:
            raise NetworkError(
                f"plan uses {plan.shard_count} shards but the transport "
                f"has only {self.shard_count}"
            )
        missing = [peer for peer in self._handlers if peer not in plan.shard_of]
        if missing:
            raise NetworkError(
                f"shard plan does not cover registered peers {sorted(missing)}"
            )
        self.plan = plan

    def send(self, message: Message) -> None:
        raise NetworkError(
            f"the {self.kind} transport delivers only inside its shard "
            "workers; drive it through Session.run / ProcessEngine"
        )

    @property
    def pending(self) -> int:
        """Always 0 between runs: deliveries only exist inside workers."""
        return 0

    def __repr__(self) -> str:
        planned = "planned" if self.plan is not None else "unplanned"
        return f"ProcessTransport({self.kind}, {self.shard_count} shards, {planned})"


class ProcessEngine:
    """Engine for every process-backed transport (see the module docstring).

    ``kind`` is the :class:`ProcessTransport` kind the engine will drive and
    its ``engine.name``: both kinds spawn (or dial) their workers on the
    first run, keep them warm and re-ship only deltas (see
    ``docs/engines.md`` for the measured crossover points).
    """

    def __init__(self, kind: str = "pooled"):
        self.name = kind
        self._pool: ShardPool | None = None
        self._cluster: LocalHostCluster | None = None

    @property
    def pool(self) -> ShardPool | None:
        """The live pool; None before the first run, after close() and
        after a failed run."""
        return self._pool

    @property
    def cluster(self) -> LocalHostCluster | None:
        """The auto-spawned localhost cluster (socket kind without hosts).

        It is kept (and revived) across runs; ``close()`` stops it.
        """
        return self._cluster

    def close(self) -> None:
        """Shut the pool and any auto-spawned hosts down (idempotent; a
        later run respawns)."""
        self._close_pool()
        if self._cluster is not None:
            self._cluster.close()
            self._cluster = None

    def _close_pool(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "ProcessEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------- protocol

    def run(
        self,
        system,
        phase: str,
        origins: Iterable[NodeId] | None = None,
        change: Change | None = None,
    ) -> tuple[float, StatsSnapshot]:
        transport = system.transport
        if not isinstance(transport, ProcessTransport) or transport.kind != self.name:
            raise ReproError(
                f"the {self.name} engine needs a {self.name!r} ProcessTransport; "
                "use Session.run (which picks the engine) or build the system "
                f"with transport={self.name!r}"
            )
        try:
            if phase not in PHASES:
                raise ReproError(f"unknown phase {phase!r}; expected one of {PHASES}")
            tracer = tracer_of(system)
            with tracer.span("plan", shards=transport.shard_count):
                plan = transport.plan
                # Bring-up, or a peer added since: the one case that re-plans.
                if plan is None or any(p not in plan.shard_of for p in transport.peers):
                    planner = ShardPlanner(transport.shard_count)
                    transport.apply_plan(planner.plan_system(system))
            # None starts the update at every peer: each worker knows its own.
            origin_list: list[NodeId] | None = None
            if origins is not None:
                origin_list = list(origins)
            elif phase == "discovery":
                origin_list = [system.super_peer]

            started = time.perf_counter()
            # Fault-injected runs may degrade to a cold re-run: the injector
            # detects the failure (a killed worker, an unhealed partition)
            # and grants re-runs from its plan's budget.  The coordinator's
            # state is only mutated by a *successful* _merge below, so a
            # re-run starts from exactly the state the failed attempt
            # started from.
            injector = injector_of(system)
            while True:
                injector.start_run()
                try:
                    payloads = self._drive_pool(
                        system, transport, phase, origin_list, change
                    )
                    break
                except NetworkError as error:
                    self._close_pool()  # a re-run starts cold
                    if not injector.should_rerun(error):
                        raise
                    _log.warning(
                        "%s run failed under fault injection (%s); "
                        "degrading to a cold re-run",
                        self.name,
                        error,
                    )
            wall = time.perf_counter() - started
            if phase == "discovery":
                reset_discovery(system)  # the workers started from none too
            completion = self._merge(system, transport, payloads, wall)
            finalize_phase(system, phase)  # paths follow from the merged edges
        except BaseException:
            # The workers learn what changed only from this run's change, and
            # ship only what they gained since their last report: a failed
            # run lost both, so drop the pool; the next run respawns from
            # the coordinator's state.
            self._close_pool()
            raise
        return completion, system.stats.snapshot()

    # ------------------------------------------------------------ internals

    def _drive_pool(
        self,
        system: P2PSystem,
        transport: ProcessTransport,
        phase: str,
        origins: list[NodeId] | None,
        change: Change | None,
    ) -> list[dict]:
        """Reuse the warm pool when possible; (re)spawn when it is not.

        Cold paths: no pool (the first run, or the one after a failure or
        ``close()``), a worker died since the last run, the pool runs
        another plan than the transport's (a peer joined, so :meth:`run`
        re-planned), or what changed since the previous run is not known
        (``change`` is None).  Warm path: hand
        the workers the change, rule edits included, and run the phase.
        """
        tracer = tracer_of(system)
        if self._pool is not None and not (
            self._pool.alive
            # An auto-spawned host's exit status is known before its
            # closed socket reaches the link.
            and (self._cluster is None or self._cluster.alive)
        ):
            _log.warning("warm pool died; respawning cold")
            self._close_pool()
        if self._pool is not None and self._pool.plan is not transport.plan:
            _log.debug("a peer joined the network; pool restarts re-planned")
            self._close_pool()
        if self._pool is not None and change is not None:
            with tracer.span("sync") as sync_span:
                sync_span.set(empty=change.empty)
                # A sync-phase kill lands here: the dead worker is detected
                # by the ``start`` below, never by a wedged barrier.
                injector_of(system).fire("sync", self._pool)
        else:
            self._close_pool()  # none, or one that cannot be told what changed
            _log.debug("spawning %s pool (%d shards)", self.name, transport.shard_count)
            with tracer.span("ship", shards=transport.shard_count):
                self._pool = self._spawn_pool(system, transport)
            injector_of(system).fire("ship", self._pool)
            change = None  # the worlds carry the live state
        return self._pool.run_phase(phase, origins, change=change, tracer=tracer)

    def _spawn_pool(self, system: P2PSystem, transport: ProcessTransport) -> ShardPool:
        """How the channels are made is the one thing ``kind`` decides."""
        if self.name == "pooled":
            return WorkerPool.spawn(system, transport.plan)
        if transport.hosts:
            hosts: Sequence[str] = transport.hosts
        elif self._cluster is None:
            self._cluster = LocalHostCluster(transport.shard_count)
            hosts = self._cluster.addresses
        else:
            hosts = self._cluster.ensure_alive()
        return SocketPool.spawn(system, transport.plan, hosts)

    def _merge(
        self, system, transport: ProcessTransport, payloads: list[dict], wall: float
    ) -> float:
        """Fold what the workers' reports shipped home into the coordinator.

        Each payload's :class:`~repro.coordination.changeset.Change` is
        applied as is, in arrival order: rows are inserted, so the
        coordinator's indexes and ``removals`` survive an insert-only run.
        """
        from repro.core.state import UpdateState

        collector = system.stats
        tracer = tracer_of(system)
        merge_span = tracer.start_span("merge", shards=transport.shard_count)
        completion = 0.0
        for payload in payloads:
            completion = max(completion, payload["clock"])
            # --- the path the run took: every worker decided alike.
            system.mode = payload["mode"]
            # --- databases: the rows and relations the shard gained.
            payload["change"].apply(system)
            # --- protocol state: closed flags and discovery edges.
            for node_id, state in payload["node_state"].items():
                node = system.node(node_id)
                if state["closed"]:
                    node.state.state_u = UpdateState.CLOSED
                node.state.edges |= state["edges"]
            # --- statistics: every delivery was recorded in exactly one
            # worker (the recipient's), so summing via the shared registry
            # merge path is double-count free.
            collector.merge_counters(payload["counters"])
            # --- telemetry: worker spans nest under the open run span,
            # aligned for clock skew.
            if tracer.enabled and "spans" in payload:
                tracer.adopt(payload["spans"], clock=payload.get("trace_clock"))
        collector.advance_time(completion)
        collector.elapsed_wall_seconds += wall
        tracer.end_span(merge_span, completion=completion)
        return completion
