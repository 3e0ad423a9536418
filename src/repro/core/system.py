"""The whole P2P database network: nodes, rules, pipes and transport.

:class:`P2PSystem` is the state-holding substrate of the library.  It owns the
rule registry, builds one :class:`~repro.core.node.PeerNode` per participating
peer, wires every rule to its target (incoming) and source (outgoing) nodes,
opens the pipes the prototype would open, and applies dynamic-network changes.
*Execution* lives one layer up: open a :class:`repro.api.Session` on the
system (or build one with :class:`repro.api.NetworkBuilder` /
:meth:`repro.api.Session.from_spec`) and call ``session.run("discovery")`` /
``session.update(strategy=...)``.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.coordination.changeset import ChangeSet, StructuralDigest, digest_system
from repro.coordination.depgraph import DependencyGraph
from repro.coordination.registry import RuleRegistry
from repro.coordination.rule import CoordinationRule, NodeId
from repro.core.node import PeerNode
from repro.database.database import LocalDatabase
from repro.database.query import ConjunctiveQuery
from repro.database.relation import Row
from repro.database.schema import DatabaseSchema, RelationSchema
from repro.errors import ReproError
from repro.network.advertisement import Advertisement, DiscoveryService
from repro.network.latency import LatencyModel
from repro.network.pipe import PipeTable
from repro.network.transport import BaseTransport
from repro.stats.collector import StatisticsCollector, StatsSnapshot

SchemaSpec = Mapping[NodeId, DatabaseSchema | Iterable[RelationSchema]]
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
        self.nodes: dict[NodeId, PeerNode] = {}
        self.pipes = PipeTable()
        self.discovery_service = DiscoveryService()
        self._super_peer = super_peer

    # -------------------------------------------------------------- building

    @classmethod
    def build(
        cls,
        schemas: SchemaSpec,
        rules: Iterable[CoordinationRule] = (),
        data: DataSpec | None = None,
        *,
        transport: str | BaseTransport = "sync",
        latency: LatencyModel | None = None,
        propagation: str = "once",
        super_peer: NodeId | None = None,
        max_messages: int = 1_000_000,
        shards: int | None = None,
        pool: bool = False,
        hosts: Iterable[str] | None = None,
    ) -> "P2PSystem":
        """Build a system from per-node schemas, rules and initial data.

        ``transport`` is either an existing transport instance or the string
        ``"sync"`` / ``"multiproc"`` / ``"pooled"`` / ``"socket"``;
        ``shards`` sets the shard count of the partitioned transports
        (default 2, ignored otherwise); ``pool=True``
        upgrades the ``"multiproc"`` transport to the persistent worker pool
        (equivalent to ``transport="pooled"``) and the ``"socket"`` transport
        to the warm socket pool; ``hosts`` lists the ``"HOST:PORT"``
        shard-host addresses of the ``"socket"`` transport (``None``
        auto-spawns localhost hosts, and the shard count defaults to one per
        host); ``propagation`` selects the query propagation policy of every
        node (see :mod:`repro.core.update`).
        """
        # Imported lazily: the api layer sits above this module.
        from repro.api.engine import transport_kind

        if isinstance(transport, BaseTransport):
            if hosts:
                raise ReproError(
                    "hosts= only applies when the transport is built here; "
                    "pass them to the ProcessTransport instance instead"
                )
            transport_obj = transport
        else:
            kind = transport_kind(transport)
            if hosts and transport != "socket":
                raise ReproError(f"hosts= needs transport='socket', not {transport!r}")
            transport_obj = kind.build(
                latency=latency,
                max_messages=max_messages,
                shards=shards,
                pool=pool,
                hosts=tuple(hosts) if hosts else None,
            )

        system = cls(transport_obj, super_peer=super_peer)
        for node_id, schema in schemas.items():
            system.add_node(node_id, schema, propagation=propagation)
        for rule in rules:
            system.add_rule(rule)
        if data:
            system.load_data(data)
        return system

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
        node = PeerNode(
            node_id,
            database,
            self.transport,
            stats=self.stats,
            propagation=propagation,
        )
        self.nodes[node_id] = node
        self.discovery_service.publish(
            Advertisement(
                peer_id=node_id, shared_relations=database.schema.relation_names
            )
        )
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
            self.pipes.ensure_pipe(rule.target, source, rule.rule_id)
        if trigger_update:
            target.update.request_rule(rule)

    def remove_rule(self, rule_id: str) -> CoordinationRule:
        """Uninstall a coordination rule everywhere (pipes close when unused)."""
        rule = self.registry.remove(rule_id)
        self.nodes[rule.target].remove_incoming_rule(rule_id)
        for source in rule.sources:
            if source in self.nodes:
                self.nodes[source].remove_outgoing_rule(rule_id)
            self.pipes.drop_rule(rule.target, source, rule_id)
        return rule

    def load_data(self, data: DataSpec) -> None:
        """Bulk-load initial rows into the nodes' local databases."""
        for node_id, relations in data.items():
            node = self.node(node_id)
            for relation_name, rows in relations.items():
                node.database.insert_many(relation_name, rows)

    def structural_digest(self) -> StructuralDigest:
        """One hashable digest of the rule set and every relation's contents.

        This is the structural fingerprint the ``Session.update``
        strategy-memo cache keys on: equal digests mean the same rules and
        the same rows everywhere, and any ``addLink`` / ``deleteLink`` /
        insertion changes it by construction.
        """
        return digest_system(self)

    def seed_update_delta(
        self, changes: ChangeSet, *, nodes: Iterable[NodeId] | None = None
    ) -> int:
        """Start the incremental update at every node ``changes`` touched.

        The delta-driven counterpart of starting a naive update at every
        origin: each node with inserted base rows seeds its delta frontier
        and pushes semi-naive fragment deltas to its registered dependants
        (see :meth:`repro.core.update.UpdateProtocol.start_incremental`).
        ``nodes`` restricts seeding (the shard workers pass their owned
        peers).  Returns the number of nodes seeded.
        """
        allowed = None if nodes is None else set(nodes)
        seeded = 0
        for node_id, relations in sorted(changes.inserts.items()):
            if allowed is not None and node_id not in allowed:
                continue
            if node_id not in self.nodes:
                continue
            self.nodes[node_id].update.start_incremental(relations)
            seeded += 1
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

    @super_peer.setter
    def super_peer(self, node_id: NodeId) -> None:
        if node_id not in self.nodes:
            raise ReproError(f"unknown node {node_id!r}")
        self._super_peer = node_id

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
