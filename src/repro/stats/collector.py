"""Counters for messages, queries, updates and transferred data.

:class:`StatisticsCollector` plays the role of the per-node statistical module
plus the super-peer's aggregation view of the paper's prototype: the transport
reports every delivered message to it, and nodes report local query executions
and local insertions.  Experiments read a :class:`StatsSnapshot` at the end of
a run and the super-peer can reset all counters between runs.

Since the observability layer landed, every counter lives in a
:class:`~repro.obs.metrics.MetricsRegistry` (``collector.registry``): the
in-process engines bump registry counters through cached handles, worker
processes ship their registries home as :meth:`dump_counters` payloads, and
the coordinator folds them in with :meth:`merge_counters` — one aggregation
code path for all engines, with :meth:`snapshot` assembling the familiar
:class:`StatsSnapshot` view from the registry on demand.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping

from repro.obs.metrics import Counter as MetricCounter
from repro.obs.metrics import MetricsRegistry


@dataclass
class MessageStats:
    """Aggregated message-level counters."""

    total_messages: int = 0
    total_bytes: int = 0
    by_type: Counter = field(default_factory=Counter)
    bytes_by_type: Counter = field(default_factory=Counter)

    def record(self, message_type: str, size: int) -> None:
        """Account for one delivered message of ``message_type`` and ``size`` bytes."""
        self.total_messages += 1
        self.total_bytes += size
        self.by_type[message_type] += 1
        self.bytes_by_type[message_type] += size


@dataclass
class NodeStats:
    """Per-node counters (one instance per peer)."""

    queries_executed: int = 0
    updates_applied: int = 0
    tuples_received: int = 0
    tuples_inserted: int = 0
    messages_sent: int = 0
    messages_received: int = 0
    duplicate_queries: int = 0


@dataclass(frozen=True)
class ShardTrafficStats:
    """Traffic accounting of one sharded run (see :mod:`repro.sharding`).

    ``messages_by_shard`` counts deliveries executed by each shard worker,
    ``tuples_by_shard`` the tuples received by the peers of each shard, and
    ``cross_shard_messages`` the messages that crossed the partition cut
    (routed through an inter-shard mailbox) — the quantity the shard planner
    minimises.
    """

    shard_count: int
    messages_by_shard: dict[int, int]
    tuples_by_shard: dict[int, int]
    cross_shard_messages: int
    intra_shard_messages: int

    @property
    def total_messages(self) -> int:
        """Deliveries summed over all shards."""
        return sum(self.messages_by_shard.values())

    @property
    def cut_ratio(self) -> float:
        """Cross-shard messages as a fraction of all deliveries."""
        total = self.total_messages
        return self.cross_shard_messages / total if total else 0.0

    @property
    def max_shard_messages(self) -> int:
        """The busiest shard's delivery count (the parallel critical path)."""
        return max(self.messages_by_shard.values(), default=0)


@dataclass(frozen=True)
class StatsSnapshot:
    """An immutable snapshot of all counters at one point in (simulated) time."""

    messages: MessageStats
    nodes: dict[str, NodeStats]
    simulated_time: float
    elapsed_wall_seconds: float
    #: Filled by the partitioned engines only; None for sync runs.
    sharding: ShardTrafficStats | None = None

    @property
    def total_messages(self) -> int:
        """Total delivered messages."""
        return self.messages.total_messages

    @property
    def total_tuples_transferred(self) -> int:
        """Sum of tuples received across all nodes."""
        return sum(node.tuples_received for node in self.nodes.values())

    @property
    def total_tuples_inserted(self) -> int:
        """Sum of tuples actually inserted across all nodes."""
        return sum(node.tuples_inserted for node in self.nodes.values())

    @property
    def total_queries_executed(self) -> int:
        """Sum of local query executions across all nodes."""
        return sum(node.queries_executed for node in self.nodes.values())

    @property
    def total_duplicate_queries(self) -> int:
        """Queries received more than once for the same original request."""
        return sum(node.duplicate_queries for node in self.nodes.values())


#: Registry counter name → :class:`NodeStats` field, one entry per counter.
_NODE_METRICS: dict[str, str] = {
    "repro_node_queries_total": "queries_executed",
    "repro_node_duplicate_queries_total": "duplicate_queries",
    "repro_node_updates_applied_total": "updates_applied",
    "repro_node_tuples_received_total": "tuples_received",
    "repro_node_tuples_inserted_total": "tuples_inserted",
    "repro_node_messages_sent_total": "messages_sent",
    "repro_node_messages_received_total": "messages_received",
}
_MESSAGES_TOTAL = "repro_messages_total"
_MESSAGE_BYTES_TOTAL = "repro_message_bytes_total"

#: Counters of the incremental (delta-driven) update mode, labelled by node.
#: ``seed_rows`` counts base rows that seeded the delta frontier,
#: ``rows_derived`` the rows the incremental chase derived (the frontier's
#: growth), ``rules_fired`` the delta joins that inserted at least one row,
#: and ``pushes`` the fragment-delta messages sent to dependants.  Naive runs
#: never touch these, so a zero total means "took the naive path".
_INCREMENTAL_METRICS: tuple[str, ...] = (
    "repro_incremental_seed_rows_total",
    "repro_incremental_rules_fired_total",
    "repro_incremental_rows_derived_total",
    "repro_incremental_pushes_total",
)


class _NodeHandles:
    """Cached registry-counter handles for one node's seven counters."""

    __slots__ = tuple(_NODE_METRICS.values())

    def __init__(self, registry: MetricsRegistry, node_id: str):
        labels = {"node": node_id}
        for metric_name, attr in _NODE_METRICS.items():
            setattr(self, attr, registry.counter(metric_name, labels))


class StatisticsCollector:
    """Mutable counters shared by the transport and all nodes of one system."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.registry.describe(_MESSAGES_TOTAL, "Messages delivered, by type")
        self.registry.describe(
            _MESSAGE_BYTES_TOTAL, "Estimated message payload bytes, by type"
        )
        self.simulated_time = 0.0
        self.elapsed_wall_seconds = 0.0
        # Hot-path handle caches; dropped (and lazily re-created) on reset().
        self._type_handles: dict[str, tuple[MetricCounter, MetricCounter]] = {}
        self._node_handles: dict[str, _NodeHandles] = {}

    # --------------------------------------------------------------- recording

    def _handles(self, node_id: str) -> _NodeHandles:
        handles = self._node_handles.get(node_id)
        if handles is None:
            handles = self._node_handles[node_id] = _NodeHandles(
                self.registry, node_id
            )
        return handles

    def record_message(
        self, message_type: str, sender: str, recipient: str, size: int
    ) -> None:
        """Record one message delivery (called by the transport)."""
        type_handles = self._type_handles.get(message_type)
        if type_handles is None:
            type_handles = self._type_handles[message_type] = (
                self.registry.counter(_MESSAGES_TOTAL, {"type": message_type}),
                self.registry.counter(_MESSAGE_BYTES_TOTAL, {"type": message_type}),
            )
        type_handles[0].value += 1
        type_handles[1].value += size
        self._handles(sender).messages_sent.value += 1
        self._handles(recipient).messages_received.value += 1

    def record_query(self, node_id: str, *, duplicate: bool = False) -> None:
        """Record a local query execution at ``node_id``."""
        handles = self._handles(node_id)
        handles.queries_executed.value += 1
        if duplicate:
            handles.duplicate_queries.value += 1

    def record_update(
        self, node_id: str, *, received: int, inserted: int
    ) -> None:
        """Record one local-update application at ``node_id``."""
        handles = self._handles(node_id)
        handles.updates_applied.value += 1
        handles.tuples_received.value += received
        handles.tuples_inserted.value += inserted

    def record_incremental(
        self,
        node_id: str,
        *,
        seed_rows: int = 0,
        rules_fired: int = 0,
        rows_derived: int = 0,
        pushes: int = 0,
    ) -> None:
        """Record delta-driven update work at ``node_id`` (incremental mode).

        Cold path by design: incremental runs bump these once per seeded node
        / fired rule / push batch, not per message, so the handles are not
        cached.  The counters ride the same registry dump/merge pipeline as
        every other metric, so worker-side increments surface in the
        coordinator's registry (and in ``Session.export_metrics``) unchanged.
        """
        labels = {"node": node_id}
        for name, amount in zip(
            _INCREMENTAL_METRICS, (seed_rows, rules_fired, rows_derived, pushes)
        ):
            if amount:
                self.registry.counter(name, labels).value += amount

    def incremental_totals(self) -> dict[str, int]:
        """The incremental counters summed over all nodes (zero-filled)."""
        totals = {name: 0 for name in _INCREMENTAL_METRICS}
        for counter in self.registry.counters.values():
            if counter.name in totals:
                totals[counter.name] += counter.value
        return totals

    def advance_time(self, simulated_time: float) -> None:
        """Advance the simulated clock to ``simulated_time`` (monotonic)."""
        if simulated_time > self.simulated_time:
            self.simulated_time = simulated_time

    # ----------------------------------------------------- cross-process merge

    def dump_counters(self) -> dict:
        """The picklable registry payload a worker ships to the coordinator."""
        return self.registry.dump()

    def merge_counters(self, dump: Mapping) -> None:
        """Fold a worker's :meth:`dump_counters` payload into this collector."""
        self.registry.merge(dump)

    # ------------------------------------------------------------- inspection

    @property
    def messages(self) -> MessageStats:
        """The message-level counters, assembled from the registry."""
        messages = MessageStats()
        for counter in self.registry.counters.values():
            if not counter.labels:
                continue
            label_value = counter.labels[0][1]
            if counter.name == _MESSAGES_TOTAL:
                messages.total_messages += counter.value
                messages.by_type[label_value] += counter.value
            elif counter.name == _MESSAGE_BYTES_TOTAL:
                messages.total_bytes += counter.value
                messages.bytes_by_type[label_value] += counter.value
        return messages

    def node(self, node_id: str) -> NodeStats:
        """The per-node counters for ``node_id``, assembled from the registry."""
        return self._assemble_nodes().get(node_id, NodeStats())

    def _assemble_nodes(self) -> dict[str, NodeStats]:
        nodes: dict[str, NodeStats] = {}
        for counter in self.registry.counters.values():
            attr = _NODE_METRICS.get(counter.name)
            if attr is None or not counter.labels:
                continue
            node_id = counter.labels[0][1]
            stats = nodes.get(node_id)
            if stats is None:
                stats = nodes[node_id] = NodeStats()
            setattr(stats, attr, getattr(stats, attr) + counter.value)
        return nodes

    def snapshot(self) -> StatsSnapshot:
        """An immutable copy of all counters."""
        return StatsSnapshot(
            messages=self.messages,
            nodes=self._assemble_nodes(),
            simulated_time=self.simulated_time,
            elapsed_wall_seconds=self.elapsed_wall_seconds,
        )

    def reset(self) -> None:
        """Reset every counter (the super-peer's "reset statistics at all peers")."""
        self.registry.reset()
        self._type_handles.clear()
        self._node_handles.clear()
        self.simulated_time = 0.0
        self.elapsed_wall_seconds = 0.0
