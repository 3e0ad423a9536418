"""Counters for messages, queries, updates and transferred data.

:class:`StatisticsCollector` plays the role of the per-node statistical module
plus the super-peer's aggregation view of the paper's prototype: the transport
reports every delivered message to it, and nodes report local query executions
and local insertions.  Experiments read a :class:`StatsSnapshot` at the end of
a run and the super-peer can reset all counters between runs.

Since the observability layer landed, every counter lives in a
:class:`~repro.obs.metrics.MetricsRegistry` (``collector.registry``): the
in-process engines bump registry counters through cached handles, worker
processes ship home the counters that moved (:meth:`ship_counters`), and
the coordinator folds them in with :meth:`merge_counters` — one aggregation
code path for all engines, with :meth:`snapshot` assembling the familiar
:class:`StatsSnapshot` view from the registry on demand.  A snapshot
re-assembles only the nodes whose counters moved since the previous one —
those handed a recording handle, or named by a merged dump — and reuses the
:class:`NodeStats` of every other node, so its cost follows the run, not the
network.
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
class StatsSnapshot:
    """An immutable snapshot of all counters at one point in (simulated) time."""

    messages: MessageStats
    nodes: dict[str, NodeStats]
    simulated_time: float
    elapsed_wall_seconds: float

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
#: ``seed_rows`` counts the rows inserted or removed that seeded the delta
#: frontier, ``rows_derived`` the rows the incremental chase derived (the
#: frontier's growth), ``rules_fired`` the delta joins — and the re-firings
#: at a relation that lost rows — that inserted at least one row, and
#: ``pushes`` the fragment-delta messages sent to dependants.  Naive runs
#: never touch these, so a zero total means "took the naive path".
_INCREMENTAL_METRICS: tuple[str, ...] = (
    "repro_incremental_seed_rows_total",
    "repro_incremental_rules_fired_total",
    "repro_incremental_rows_derived_total",
    "repro_incremental_pushes_total",
)


#: The A6 chase counters (``LocalDatabase.apply_view_tuples`` and its
#: projection check), as ``repro_chase_<field>_total`` without labels.
_CHASE_FIELDS: tuple[str, ...] = (
    "calls",
    "projection_checks",
    "candidates_scanned",
    "skipped_by_projection",
    "rows_inserted",
    "wall_seconds",
)


class ChaseHandles:
    """The six A6 counter handles a traced system's databases bump
    (``LocalDatabase.profile``); :meth:`StatisticsCollector.reset` re-binds
    them, so the databases never hold stale ones."""

    __slots__ = _CHASE_FIELDS

    def bind(self, registry: MetricsRegistry) -> None:
        for name in _CHASE_FIELDS:
            setattr(self, name, registry.counter(f"repro_chase_{name}_total"))

    def values(self) -> list[float]:
        return [getattr(self, name).value for name in _CHASE_FIELDS]

    def attributes_since(self, before: list[float]) -> dict[str, float]:
        """The run span's ``a6_*`` attributes: the change since ``before``."""
        now = self.values()
        deltas = {
            f"a6_{name}": now[i] - before[i] for i, name in enumerate(_CHASE_FIELDS)
        }
        deltas["a6_wall_seconds"] = round(deltas["a6_wall_seconds"], 6)
        return deltas


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
        # Handle caches, dropped (and lazily re-created) on reset().  Every
        # message-type counter has its pair here, merged ones included.
        self._type_handles: dict[str, tuple[MetricCounter, MetricCounter]] = {}
        self._node_handles: dict[str, _NodeHandles] = {}
        # Per node, its incremental counters in _INCREMENTAL_METRICS order.
        self._incremental_handles: dict[str, list[MetricCounter]] = {}
        # The nodes whose counters moved since the last snapshot — handed a
        # recording handle (kept here) or named by a merge (None): the only
        # ones whose NodeStats can be stale.
        self._moved: dict[str, _NodeHandles | None] = {}
        # NodeStats per node as last assembled; never mutated once shared.
        self._nodes: dict[str, NodeStats] = {}
        self._incremental: dict[str, int] = dict.fromkeys(_INCREMENTAL_METRICS, 0)
        self._chase: ChaseHandles | None = None

    # --------------------------------------------------------------- recording

    def chase_handles(self) -> ChaseHandles:
        """The A6 counters' handles, for a traced system's databases."""
        if self._chase is None:
            self._chase = ChaseHandles()
            self._chase.bind(self.registry)
        return self._chase

    def _handles(self, node_id: str) -> _NodeHandles:
        """``node_id``'s handles, marking the node moved.  The recorders try
        ``self._moved.get(node_id)`` inline first: per delivery, the node has
        nearly always moved already."""
        handles = self._moved.get(node_id)
        if handles is None:
            handles = self._node_handles.get(node_id)
            if handles is None:
                handles = self._node_handles[node_id] = _NodeHandles(
                    self.registry, node_id
                )
            self._moved[node_id] = handles
        return handles

    def _message_handles(
        self, message_type: str
    ) -> tuple[MetricCounter, MetricCounter]:
        # Keyed by the plain string: a MessageType member (a str) finds it.
        message_type = str(message_type)
        type_handles = self._type_handles.get(message_type)
        if type_handles is None:
            type_handles = self._type_handles[message_type] = (
                self.registry.counter(_MESSAGES_TOTAL, {"type": message_type}),
                self.registry.counter(_MESSAGE_BYTES_TOTAL, {"type": message_type}),
            )
        return type_handles

    def record_message(
        self, message_type: str, sender: str, recipient: str, size: int
    ) -> None:
        """Record one message delivery (called by the transport, which
        passes the message's :class:`~repro.network.message.MessageType`:
        it is the str it names, without the enum's ``value`` lookup)."""
        type_handles = self._type_handles.get(message_type)
        if type_handles is None:
            type_handles = self._message_handles(message_type)
        type_handles[0].value += 1
        type_handles[1].value += size
        moved = self._moved
        (moved.get(sender) or self._handles(sender)).messages_sent.value += 1
        (moved.get(recipient) or self._handles(recipient)).messages_received.value += 1

    def record_query(self, node_id: str, *, duplicate: bool = False) -> None:
        """Record a local query execution at ``node_id``."""
        handles = self._moved.get(node_id) or self._handles(node_id)
        handles.queries_executed.value += 1
        if duplicate:
            handles.duplicate_queries.value += 1

    def record_update(
        self, node_id: str, *, received: int, inserted: int
    ) -> None:
        """Record one local-update application at ``node_id``."""
        handles = self._moved.get(node_id) or self._handles(node_id)
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

        The delta path calls this once per delivery and once per push, so
        the node's four handles are cached like :class:`_NodeHandles`.  The
        counters ride the same registry dump/merge pipeline as every other
        metric, so worker-side increments surface in the coordinator's
        registry (and in ``Session.export_metrics``) unchanged.
        """
        handles = self._incremental_handles.get(node_id)
        if handles is None:
            labels = {"node": node_id}
            handles = self._incremental_handles[node_id] = [
                self.registry.counter(name, labels) for name in _INCREMENTAL_METRICS
            ]
        totals = self._incremental
        for name, handle, amount in zip(
            _INCREMENTAL_METRICS, handles, (seed_rows, rules_fired, rows_derived, pushes)
        ):
            if amount:
                handle.value += amount
                totals[name] += amount

    def incremental_totals(self) -> dict[str, int]:
        """The incremental counters summed over all nodes (zero-filled);
        kept as they are recorded and merged, so reading them is O(1)."""
        return dict(self._incremental)

    def advance_time(self, simulated_time: float) -> None:
        """Advance the simulated clock to ``simulated_time`` (monotonic)."""
        if simulated_time > self.simulated_time:
            self.simulated_time = simulated_time

    # ----------------------------------------------------- cross-process merge

    def ship_counters(self) -> dict:
        """A registry dump (:meth:`MetricsRegistry.dump
        <repro.obs.metrics.MetricsRegistry.dump>` format) of the counters
        that moved since the previous call, which then restart from zero.

        What a shard worker sends home after each run.  Unlike :meth:`reset`
        it zeroes the counters in place, so every cached handle stays valid
        and the next run does not look its nodes' counters up again.
        """
        moved = [c for c in self.registry.counters.values() if c.value]
        dump = {"counters": [(c.name, c.labels, c.value) for c in moved]}
        for counter in moved:
            counter.value = 0
        self._moved, self._nodes = {}, {}
        self._incremental = dict.fromkeys(_INCREMENTAL_METRICS, 0)
        self.simulated_time = 0.0
        self.elapsed_wall_seconds = 0.0
        return dump

    def merge_counters(self, dump: Mapping) -> None:
        """Fold a worker's :meth:`ship_counters` payload into this collector.

        The dump names what moved: its node counters mark their nodes for
        the next snapshot, its message and incremental counters join the
        collector's handles and totals.
        """
        self.registry.merge(dump)
        for name, labels, value in dump.get("counters", ()):
            if name in self._incremental:
                self._incremental[name] += value
            elif not labels:
                continue
            elif name in _NODE_METRICS:
                self._moved.setdefault(labels[0][1], None)
            elif name == _MESSAGES_TOTAL:
                self._message_handles(labels[0][1])

    # ------------------------------------------------------------- inspection

    @property
    def messages(self) -> MessageStats:
        """The message-level counters, assembled from the registry."""
        messages = MessageStats()
        for message_type, (count, size) in self._type_handles.items():
            messages.total_messages += count.value
            messages.by_type[message_type] += count.value
            messages.total_bytes += size.value
            messages.bytes_by_type[message_type] += size.value
        return messages

    def node(self, node_id: str) -> NodeStats:
        """The per-node counters for ``node_id``, assembled from the registry."""
        stats = NodeStats()
        counters, labels = self.registry.counters, (("node", node_id),)
        for name, attr in _NODE_METRICS.items():
            counter = counters.get((name, labels))
            if counter is not None:
                setattr(stats, attr, counter.value)
        return stats

    def snapshot(self) -> StatsSnapshot:
        """An immutable copy of all counters.

        Only the nodes whose counters moved since the last snapshot are
        assembled again; the others keep their :class:`NodeStats`.
        """
        nodes = self._nodes
        for node_id in self._moved:
            nodes[node_id] = self.node(node_id)
        self._moved = {}
        return StatsSnapshot(
            messages=self.messages,
            nodes=dict(nodes),
            simulated_time=self.simulated_time,
            elapsed_wall_seconds=self.elapsed_wall_seconds,
        )

    def reset(self) -> None:
        """Reset every counter (the super-peer's "reset statistics at all peers")."""
        self.registry.reset()
        self._type_handles.clear()
        self._node_handles.clear()
        self._incremental_handles.clear()
        self._moved, self._nodes = {}, {}
        self._incremental = dict.fromkeys(_INCREMENTAL_METRICS, 0)
        self.simulated_time = 0.0
        self.elapsed_wall_seconds = 0.0
        if self._chase is not None:
            self._chase.bind(self.registry)
