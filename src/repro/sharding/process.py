"""The process-backed engine: one engine over one pool, kept warm or not.

``multiproc``, ``pooled``, ``socket`` and ``socket-pooled`` are one engine.
What differs between them is data on the coordinator's transport handle:

* :class:`ProcessTransport` carries the run configuration — ``kind`` says
  what carries the channels to the shard workers (``"multiproc"``: fork-server
  children on this box; ``"socket"``: TCP shard hosts, with ``hosts`` and
  ``max_frame``), ``pool`` says whether the workers outlive a run — adopts
  the shard plan, and after a run exposes the merged per-shard counters
  (:func:`traffic_stats`).  It never delivers a message itself.
* :class:`ProcessEngine` implements the
  :class:`~repro.api.engine.ExecutionEngine` protocol: it plans the
  partition, brings a :class:`~repro.sharding.pool.ShardPool` up over the
  live system (or syncs the warm one with the structural delta), drives the
  phase to distributed quiescence, and merges what the workers gained — new
  rows, changed protocol state, statistics — into the coordinator's system so
  ``Session.run`` / parity checks / experiments read one consistent picture.
  A one-shot run is a pool closed after its run; a warm engine keeps the
  pool, so a :class:`~repro.api.session.Session` holding it keeps its
  workers across ``session.run(...)`` calls — close the session (or the
  engine) to stop them.

The engine owns the pool's lifecycle: the first run spawns it, a crashed
worker or dead host is detected (a dead channel with an outstanding reply)
and the pool is respawned cold on the next run — reconnecting, and reviving
auto-spawned localhost hosts that died — and a rule-graph change triggers
**re-plan invalidation**: the planner runs again, and if the fresh plan moves
any peer to a different shard the pool restarts with the new partition
(otherwise the rule delta is shipped to the warm workers and the partition
is kept).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import replace
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.coordination.rule import NodeId
from repro.errors import NetworkError, ReproError
from repro.faults.injector import injector_of
from repro.network.latency import LatencyModel
from repro.network.message import Message
from repro.network.transport import BaseTransport
from repro.obs import get_logger, tracer_of
from repro.sharding.planner import ShardPlan, ShardPlanner
from repro.sharding.pool import ShardPool, WorkerPool
from repro.sharding.sockets import (
    DEFAULT_MAX_FRAME,
    LocalHostCluster,
    SocketPool,
    parse_address,
)
from repro.stats.collector import ShardTrafficStats, StatisticsCollector, StatsSnapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports us)
    from repro.core.system import P2PSystem

#: ``engine.name`` by what carries the channels and whether the pool is kept.
_ENGINE_NAMES = {
    ("multiproc", False): "multiproc",
    ("multiproc", True): "pooled",
    ("socket", False): "socket",
    ("socket", True): "socket-pooled",
}

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
        kind: str = "multiproc",
        shard_count: int | None = None,
        *,
        pool: bool = False,
        hosts: Sequence[str] | None = None,
        latency: LatencyModel | None = None,
        stats: StatisticsCollector | None = None,
        max_messages: int = 1_000_000,
        max_frame: int = DEFAULT_MAX_FRAME,
    ):
        if (kind, pool) not in _ENGINE_NAMES:
            raise ReproError(
                f"unknown process transport kind {kind!r}; "
                "expected 'multiproc' or 'socket'"
            )
        if hosts and kind != "socket":
            raise ReproError(f"hosts= needs transport='socket', not {kind!r}")
        if shard_count is None:
            shard_count = len(hosts) if hosts else 2
        if shard_count < 1:
            raise NetworkError(f"a {kind} transport needs at least one shard")
        super().__init__(latency=latency, stats=stats)
        self.kind = kind
        self.pool = pool
        self.shard_count = shard_count
        self.max_messages = max_messages
        self.hosts: tuple[str, ...] | None = tuple(hosts) if hosts else None
        self.max_frame = max_frame
        self.plan: ShardPlan | None = None
        self.delivered_count = 0
        self._delivered_by_shard: dict[int, int] = {}
        self._cross_shard = 0
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

    def shard_of(self, node_id: str) -> int:
        """The shard a peer is assigned to (after planning)."""
        if self.plan is None:
            raise NetworkError(f"the {self.kind} transport has no shard plan yet")
        return self.plan.shard(node_id)

    def send(self, message: Message) -> None:
        raise NetworkError(
            f"the {self.kind} transport delivers only inside its shard "
            "workers; drive it through Session.run / ProcessEngine"
        )

    @property
    def pending(self) -> int:
        """Always 0 between runs: deliveries only exist inside workers."""
        return 0

    # ---- merged counters (filled by the engine after each run) -------------

    def record_run(
        self, delivered_by_shard: Mapping[int, int], cross_shard: int
    ) -> None:
        """Accumulate one run's merged delivery counters."""
        for shard, count in delivered_by_shard.items():
            self._delivered_by_shard[shard] = (
                self._delivered_by_shard.get(shard, 0) + count
            )
        self.delivered_count += sum(delivered_by_shard.values())
        self._cross_shard += cross_shard

    def shard_message_counts(self) -> dict[int, int]:
        """Messages delivered per shard so far (merged across runs)."""
        counts = {shard: 0 for shard in range(self.shard_count)}
        counts.update(self._delivered_by_shard)
        return counts

    @property
    def cross_shard_messages(self) -> int:
        """Messages that crossed the cut (went through another worker)."""
        return self._cross_shard

    @property
    def intra_shard_messages(self) -> int:
        """Delivered messages that stayed inside their shard's worker."""
        return self.delivered_count - min(self._cross_shard, self.delivered_count)

    def __repr__(self) -> str:
        planned = "planned" if self.plan is not None else "unplanned"
        return (
            f"ProcessTransport({_ENGINE_NAMES[self.kind, self.pool]}, "
            f"{self.shard_count} shards, {planned}, "
            f"{self.delivered_count} delivered)"
        )


def traffic_stats(
    transport: ProcessTransport, snapshot: StatsSnapshot
) -> ShardTrafficStats:
    """The per-shard traffic view of the runs so far over ``transport``."""
    tuples_by_shard = {shard: 0 for shard in range(transport.shard_count)}
    for node_id, node_stats in snapshot.nodes.items():
        tuples_by_shard[transport.shard_of(node_id)] += node_stats.tuples_received
    return ShardTrafficStats(
        shard_count=transport.shard_count,
        messages_by_shard=transport.shard_message_counts(),
        tuples_by_shard=tuples_by_shard,
        cross_shard_messages=transport.cross_shard_messages,
        intra_shard_messages=transport.intra_shard_messages,
    )


class ProcessEngine:
    """Engine for every process-backed transport (see the module docstring).

    ``kind`` and ``pool`` mirror the :class:`ProcessTransport` the engine
    will drive and fix ``engine.name``: ``multiproc`` / ``socket`` spawn (or
    dial), run one phase and close; ``pooled`` / ``socket-pooled`` keep the
    pool warm and re-ship only deltas (see ``docs/engines.md`` for the
    measured crossover points).
    """

    def __init__(
        self,
        kind: str = "multiproc",
        *,
        pool: bool = False,
        planner: ShardPlanner | None = None,
    ):
        self.name = _ENGINE_NAMES[kind, pool]
        self.kind = kind
        self.warm = pool
        self.planner = planner
        #: Set False to pin every warm update to the naive path — the parity
        #: tests use this to compare both paths over the same engine.
        self.incremental = True
        self._pool: ShardPool | None = None
        #: True once the warm workers hold a *converged* update fix-point —
        #: the precondition for the delta path, which pushes along the owner
        #: edges the previous run registered.  Spawns and non-update phases
        #: do not set it; dropping the pool clears it.
        self._primed = False
        self._cluster: LocalHostCluster | None = None

    @property
    def pool(self) -> ShardPool | None:
        """The live warm pool; None before the first run, after close() and
        always between the runs of a one-shot engine."""
        return self._pool

    @property
    def cluster(self) -> LocalHostCluster | None:
        """The auto-spawned localhost cluster (socket kind without hosts).

        It is kept (and revived) across runs, warm or one-shot; ``close()``
        stops it.
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
        self._primed = False

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
        self, system, phase: str, origins: Iterable[NodeId] | None = None
    ) -> tuple[float, StatsSnapshot]:
        if phase not in ("discovery", "update"):
            raise ReproError(
                f"unknown phase {phase!r}; expected 'discovery' or 'update'"
            )
        transport = system.transport
        if not isinstance(transport, ProcessTransport) or transport.kind != self.kind:
            raise ReproError(
                f"the {self.name} engine needs a {self.kind!r} ProcessTransport; "
                "use Session.run (which picks the engine) or build the system "
                f"with transport={self.kind!r}"
            )
        tracer = tracer_of(system)
        with tracer.span("plan", shards=transport.shard_count):
            if transport.plan is None:
                planner = self.planner or ShardPlanner(transport.shard_count)
                transport.apply_plan(planner.plan_system(system))
        # None starts the update at every peer: each worker knows its own.
        origin_list: list[NodeId] | None = None
        if origins is not None:
            origin_list = list(origins)
        elif phase == "discovery":
            origin_list = [system.super_peer]

        started = time.perf_counter()
        # Fault-injected runs may degrade to a cold re-run: the injector
        # detects the failure (a killed worker, an unhealed partition) and
        # grants re-runs from its plan's budget.  The coordinator's state is
        # only mutated by a *successful* _merge below, so a re-run starts
        # from exactly the state the failed attempt started from.
        injector = injector_of(system)
        while True:
            injector.start_run()
            try:
                payloads = self._drive_pool(system, transport, phase, origin_list)
                break
            except NetworkError as error:
                if not injector.should_rerun(error):
                    raise
                _log.warning(
                    "%s run failed under fault injection (%s); "
                    "degrading to a cold re-run",
                    self.name,
                    error,
                )
        wall = time.perf_counter() - started
        try:
            completion = self._merge(system, transport, payloads, wall)
            if phase == "discovery":  # paths follow from the merged edges
                for node in system.nodes.values():
                    node.discovery.finalize_paths()
            if self._pool is not None:
                self._pool.note_merged(system)
        except BaseException:
            # The workers only ship what they gained since their last
            # report, so a payload that was not merged in full is lost for
            # good: drop the pool, the next run respawns from this state.
            self._close_pool()
            raise
        snapshot = system.stats.snapshot()
        return completion, replace(
            snapshot, sharding=traffic_stats(transport, snapshot)
        )

    # ------------------------------------------------------------ internals

    def _drive_pool(
        self,
        system: P2PSystem,
        transport: ProcessTransport,
        phase: str,
        origins: list[NodeId] | None,
    ) -> list[dict]:
        """Reuse the warm pool when possible; (re)spawn when it is not.

        Cold paths: no pool (always, on a one-shot engine), a worker died
        since the last run, or the rule graph changed in a way that
        re-partitions the network (:meth:`ShardPool.plan_if_stale`).  Warm
        path: ship the delta, run the phase — as a delta-driven incremental
        update when the pool is primed (previous update converged) and the
        delta only moves rows (:attr:`Change.rows_only
        <repro.coordination.changeset.Change.rows_only>`), naively otherwise.
        Any failure drops the pool, so the next run (or fault-budgeted
        re-run) starts cold.
        """
        tracer = tracer_of(system)
        mode: str | None = None
        try:
            if self._pool is not None and not (
                self._pool.alive
                # An auto-spawned host's exit status is known at once; its
                # link's reader thread may take a moment to see the close.
                and (self._cluster is None or self._cluster.alive)
            ):
                _log.warning("warm pool died; respawning cold")
                self._close_pool()
            if self._pool is not None:
                planner = self.planner or ShardPlanner(transport.shard_count)
                fresh_plan = self._pool.plan_if_stale(system, planner)
                if fresh_plan is not None:
                    _log.debug("rule graph re-partitioned the network; pool restarts")
                    self._close_pool()
                    transport.apply_plan(fresh_plan)
            delta = None
            if self._pool is not None:
                with tracer.span("sync") as sync_span:
                    delta = self._pool.sync(system)
                    sync_span.set(empty=delta.empty)
                eligible = self.incremental and self._primed and delta.rows_only
                if phase == "update" and eligible:
                    # Coordinator-side gate only: each worker re-checks
                    # against the deltas it actually accumulated (a sync may
                    # have been shipped before a discovery run) and falls
                    # back to naive on its own if they disagree.
                    mode = "incremental"
            else:
                _log.debug(
                    "spawning %s pool (%d shards)", self.kind, transport.shard_count
                )
                with tracer.span("ship", shards=transport.shard_count):
                    self._pool = self._spawn_pool(system, transport)
                injector_of(system).fire("ship", self._pool)
            payloads = self._pool.run_phase(
                phase, origins, change=delta, tracer=tracer, mode=mode
            )
        except BaseException:
            self._close_pool()
            raise
        if not self.warm:
            self._close_pool()
        elif phase == "update":
            self._primed = True
        return payloads

    def _spawn_pool(self, system: P2PSystem, transport: ProcessTransport) -> ShardPool:
        """How the channels are made is the one thing ``kind`` decides."""
        if self.kind == "multiproc":
            return WorkerPool.spawn(system, transport.plan)
        if transport.hosts:
            hosts: Sequence[str] = transport.hosts
        elif self._cluster is None:
            self._cluster = LocalHostCluster(transport.shard_count)
            hosts = self._cluster.addresses
        else:
            hosts = self._cluster.ensure_alive()
        return SocketPool.spawn(
            system, transport.plan, hosts, max_frame=transport.max_frame
        )

    def _merge(
        self, system, transport: ProcessTransport, payloads: list[dict], wall: float
    ) -> float:
        """Fold what the workers' reports shipped home into the coordinator.

        Each payload's :class:`~repro.coordination.changeset.Change` is
        applied as is, in arrival order: rows are inserted, so the
        coordinator's indexes and ``removals`` survive an insert-only run.
        """
        from repro.core.state import UpdateState

        delivered_by_shard: Counter[int] = Counter()
        for payload in payloads:
            delivered_by_shard[payload["shard"]] += payload["delivered"]
        if sum(delivered_by_shard.values()) > transport.max_messages:
            raise NetworkError(
                f"exceeded {transport.max_messages} deliveries across shards; "
                "the protocol does not appear to terminate"
            )
        collector = system.stats
        tracer = tracer_of(system)
        merge_span = tracer.start_span("merge", shards=transport.shard_count)
        cross_shard = 0
        completion = 0.0
        for payload in payloads:
            cross_shard += payload["cross_received"]
            completion = max(completion, payload["clock"])
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
            # aligned for clock skew; chase profiles accumulate.
            if tracer.enabled and "spans" in payload:
                tracer.adopt(payload["spans"], clock=payload.get("trace_clock"))
                tracer.chase.merge(payload.get("chase_profile", {}))
        collector.advance_time(completion)
        collector.elapsed_wall_seconds += wall
        transport.record_run(delivered_by_shard, cross_shard)
        tracer.end_span(merge_span, completion=completion)
        return completion
