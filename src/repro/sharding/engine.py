"""The third execution engine: the protocol phases over a sharded transport.

:class:`ShardedEngine` implements the same :class:`~repro.api.engine.ExecutionEngine`
protocol as :class:`~repro.api.engine.SyncEngine` and
:class:`~repro.api.engine.AsyncEngine`, so ``Session.run(...)`` and every
registered update strategy work unchanged over a partitioned network.  Its one
extra responsibility is *planning*: on first use it partitions the system's
peers across the transport's shards by cutting the coordination-rule graph
(unless a plan was applied explicitly), and after each run it attaches a
:class:`~repro.stats.collector.ShardTrafficStats` to the snapshot so
experiments can read per-shard and cross-shard traffic uniformly.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace
from typing import TYPE_CHECKING, Iterable

from repro.api.engine import finalize_phase, start_phase
from repro.coordination.rule import NodeId
from repro.errors import ReproError
from repro.obs import tracer_of
from repro.sharding.planner import ShardPlanner
from repro.sharding.transport import ShardedTransport
from repro.stats.collector import ShardTrafficStats, StatsSnapshot

if TYPE_CHECKING:
    from repro.core.system import P2PSystem


def traffic_stats(transport, snapshot: StatsSnapshot) -> ShardTrafficStats:
    """The per-shard traffic view of one run over a planned transport.

    ``transport`` is any transport with a shard plan and merged delivery
    counters (:class:`~repro.sharding.transport.ShardedTransport` or
    :class:`~repro.sharding.process.ProcessTransport`), so the traffic stats
    of every partitioned engine are directly comparable.
    """
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


class ShardedEngine:
    """Engine for the partitioned transport (one worker per shard)."""

    name = "sharded"

    def __init__(self, planner: ShardPlanner | None = None):
        self.planner = planner

    def _check(self, system: P2PSystem) -> ShardedTransport:
        transport = system.transport
        if not isinstance(transport, ShardedTransport):
            raise ReproError(
                "the sharded engine needs a ShardedTransport; "
                "use Session.run (which picks the engine) or build the system "
                "with transport='sharded'"
            )
        return transport

    def _ensure_plan(self, system: P2PSystem, transport: ShardedTransport) -> None:
        if transport.plan is not None:
            return
        planner = self.planner or ShardPlanner(transport.shard_count)
        transport.apply_plan(planner.plan_system(system))

    def run(
        self, system, phase: str, origins: Iterable[NodeId] | None = None
    ) -> tuple[float, StatsSnapshot]:
        self._check(system)
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            pass
        else:
            raise ReproError(
                "the blocking run() was called from inside an event loop; "
                "use 'await session.run_async(...)' there"
            )
        return asyncio.run(self.run_async(system, phase, origins))

    async def run_async(
        self, system, phase: str, origins: Iterable[NodeId] | None = None
    ) -> tuple[float, StatsSnapshot]:
        transport = self._check(system)
        tracer = tracer_of(system)
        with tracer.span("plan", shards=transport.shard_count):
            self._ensure_plan(system, transport)
        start_phase(system, phase, origins)
        with tracer.span("chase", engine=self.name) as span:
            completion = await transport.run_until_quiescent()
            span.set(
                delivered=transport.delivered_count,
                cross_shard=transport.cross_shard_messages,
            )
        finalize_phase(system, phase)
        snapshot = system.stats.snapshot()
        return completion, replace(
            snapshot, sharding=traffic_stats(transport, snapshot)
        )
