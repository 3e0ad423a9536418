"""The whole P2P database network: nodes, rules and transport.

:class:`P2PSystem` is the state-holding substrate of the library.  It owns the
rule registry, builds one :class:`~repro.core.node.PeerNode` per participating
peer, wires every rule to its target (incoming) and source (outgoing) nodes,
and applies dynamic-network changes.
*Assembly* and *execution* live one layer up: a
:class:`repro.api.ScenarioSpec` describes a network and its
:meth:`~repro.api.ScenarioSpec.build_system` is the one place a system is put
together; open a :class:`repro.api.Session` on it (or use
:meth:`repro.api.Session.from_spec`) and call ``session.run("discovery")`` /
``session.run("update")``.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.coordination.changeset import Change
from repro.coordination.depgraph import DependencyGraph
from repro.coordination.registry import RuleRegistry
from repro.coordination.rule import CoordinationRule, NodeId
from repro.core.node import PeerNode
from repro.database.database import LocalDatabase
from repro.database.query import ConjunctiveQuery
from repro.database.relation import Row, Touched
from repro.database.schema import DatabaseSchema, RelationSchema
from repro.errors import ReproError
from repro.network.transport import BaseTransport
from repro.stats.collector import StatisticsCollector, StatsSnapshot

DataSpec = Mapping[NodeId, Mapping[str, Iterable[Row]]]


class P2PSystem:
    """A complete P2P database network over a single simulated transport."""

    def __init__(
        self,
        transport: BaseTransport,
        super_peer: NodeId | None = None,
    ):
        self.transport = transport
        self.stats: StatisticsCollector = transport.stats
        #: Span tracer attached by a traced Session; None means tracing off
        #: (engines resolve this via repro.obs.tracer_of).
        self.tracer = None
        #: Fault injector attached by a chaos Session; None means no faults
        #: (engines resolve this via repro.faults.injector_of).
        self.fault_injector = None
        self.registry = RuleRegistry()
        #: The relations written since a reader's read: what a session's
        #: reads and a worker's reports visit instead of every relation.
        self.touched = Touched()
        self.nodes: dict[NodeId, PeerNode] = {}
        self._super_peer = super_peer
        #: The delta path's state (:func:`repro.api.engine.start_run`): the
        #: change folded since the last update start, whether that update
        #: started everywhere and converged, and how the last run started
        #: (``"incremental"``: on the delta path).
        self.pending = Change()
        self.primed = False
        self.mode = "naive"

    # -------------------------------------------------------------- building

    def add_node(
        self,
        node_id: NodeId,
        schema: DatabaseSchema | Iterable[RelationSchema],
        *,
        propagation: str = "once",
    ) -> PeerNode:
        """Create and register a peer with the given shared schema."""
        if node_id in self.nodes:
            raise ReproError(f"node {node_id!r} already exists")
        database = LocalDatabase(schema)
        database.attach(self.touched, node_id)
        node = PeerNode(
            node_id,
            database,
            self.transport,
            stats=self.stats,
            propagation=propagation,
        )
        self.nodes[node_id] = node
        return node

    def add_rule(self, rule: CoordinationRule, *, trigger_update: bool = False) -> None:
        """Install a coordination rule on its target and source nodes.

        With ``trigger_update=True`` the target node immediately queries the
        rule's sources (used by the dynamic ``addLink`` operation when an
        update is already under way).
        """
        for mentioned in (rule.target, *rule.sources):
            if mentioned not in self.nodes:
                raise ReproError(
                    f"rule {rule.rule_id!r} mentions unknown node {mentioned!r}"
                )
        self.registry.add(rule)
        target = self.nodes[rule.target]
        target.add_incoming_rule(rule)
        for source in rule.sources:
            self.nodes[source].add_outgoing_rule(rule)
        if trigger_update:
            target.update.request_rule(rule)

    def remove_rule(self, rule_id: str) -> CoordinationRule:
        """Uninstall a coordination rule at its target and source nodes."""
        rule = self.registry.remove(rule_id)
        self.nodes[rule.target].remove_incoming_rule(rule_id)
        for source in rule.sources:
            if source in self.nodes:
                self.nodes[source].remove_outgoing_rule(rule_id)
        return rule

    def load_data(self, data: DataSpec) -> None:
        """Bulk-load initial rows into the nodes' local databases."""
        for node_id, relations in data.items():
            node = self.node(node_id)
            for relation_name, rows in relations.items():
                node.database.insert_many(relation_name, rows)

    def seed_update_delta(
        self, changes: Change, *, nodes: Iterable[NodeId] | None = None
    ) -> list[NodeId]:
        """Start the incremental update at every node ``changes`` moved rows at.

        The delta-driven counterpart of starting a naive update at every
        origin: each node with inserted or removed rows re-fires the rules
        whose head lost rows, then pushes semi-naive fragment deltas to its
        registered dependants (see
        :meth:`repro.core.update.UpdateProtocol.start_incremental`).
        ``nodes`` restricts seeding (the shard workers pass their owned
        peers).  Returns the nodes seeded.
        """
        allowed = None if nodes is None else set(nodes)
        seeded = []
        for node_id in sorted({*changes.inserts, *changes.removes}):
            if allowed is not None and node_id not in allowed:
                continue
            if node_id not in self.nodes:
                continue
            self.nodes[node_id].update.start_incremental(
                changes.inserts.get(node_id, {}), changes.removes.get(node_id)
            )
            seeded.append(node_id)
        return seeded

    # ------------------------------------------------------------- properties

    @property
    def super_peer(self) -> NodeId:
        """The designated super-peer (defaults to the smallest node id)."""
        if self._super_peer is not None:
            return self._super_peer
        if not self.nodes:
            raise ReproError("the system has no nodes")
        return min(self.nodes)

    def dependency_graph(self) -> DependencyGraph:
        """The dependency graph of the current rule set."""
        return self.registry.dependency_graph(nodes=self.nodes)

    def node(self, node_id: NodeId) -> PeerNode:
        """The peer named ``node_id``."""
        try:
            return self.nodes[node_id]
        except KeyError:
            raise ReproError(f"unknown node {node_id!r}") from None

    # ----------------------------------------------------------------- queries

    def local_query(self, node_id: NodeId, query: ConjunctiveQuery) -> set[tuple]:
        """Answer ``query`` using only ``node_id``'s local data."""
        return self.node(node_id).local_query(query)

    def databases(self) -> dict[NodeId, dict[str, frozenset[Row]]]:
        """A snapshot of every node's relations (used by tests and experiments)."""
        return {node_id: node.database.facts() for node_id, node in self.nodes.items()}

    def snapshot_stats(self) -> StatsSnapshot:
        """The current statistics snapshot."""
        return self.stats.snapshot()

    def reset_statistics(self) -> None:
        """Reset all counters (the super-peer's reset command)."""
        self.stats.reset()

    def __repr__(self) -> str:
        return (
            f"P2PSystem({len(self.nodes)} nodes, {len(self.registry)} rules, "
            f"transport={type(self.transport).__name__})"
        )
