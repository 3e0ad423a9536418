"""Declarative scenarios and a fluent network builder.

A :class:`ScenarioSpec` is everything a run needs in one object — schemas,
rules, initial data, transport, propagation policy, latency, super-peer and a
default update strategy — so experiments reduce to *spec + run + report* and
can be stored, varied and replayed.  :class:`NetworkBuilder` constructs a spec
(or directly a session) fluently::

    session = (
        NetworkBuilder("demo")
        .node("a", RelationSchema("item", ["x", "y"]))
        .node("b", RelationSchema("item", ["x", "y"]))
        .rule("ab: b: item(X, Y) -> a: item(X, Y)")
        .data("b", "item", [("1", "2")])
        .super_peer("a")
        .session()
    )

:meth:`ScenarioSpec.from_topology` packages the paper's DBLP workload (a
topology plus generated schemas, rules and records) as a spec, which is what
the Section 5 experiments run on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.api.engine import transport_kind, transport_names
from repro.coordination.rule import CoordinationRule, NodeId, rule_from_text
from repro.database.relation import Row
from repro.database.schema import Attribute, DatabaseSchema, RelationSchema
from repro.errors import ReproError
from repro.network.latency import ConstantLatency, LatencyModel, UniformLatency
from repro.network.transport import BaseTransport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.api.session import Session
    from repro.core.system import P2PSystem
    from repro.faults.plan import FaultPlan
    from repro.workloads.topologies import TopologySpec

#: Format tag written into dumped scenario files.
_SPEC_FORMAT = "repro-scenario/1"


#: What :meth:`ScenarioSpec.of` accepts per node before schema coercion.
SchemaInput = DatabaseSchema | RelationSchema | Iterable[RelationSchema]


def _transport_label(transport: str | BaseTransport) -> str:
    """How error messages name the spec's transport setting."""
    if isinstance(transport, str):
        return transport
    return repr(type(transport).__name__)


def _name_list(names: Iterable[str]) -> str:
    """Transport names as error messages spell them: ``'a'/'b'/'c'``."""
    return "/".join(repr(name) for name in names)


def _coerce_schema(schema: SchemaInput) -> DatabaseSchema:
    if isinstance(schema, DatabaseSchema):
        return schema
    if isinstance(schema, RelationSchema):
        return DatabaseSchema([schema])
    return DatabaseSchema(schema)


def _dump_latency(latency: LatencyModel | None) -> dict | None:
    if latency is None:
        return None
    if isinstance(latency, ConstantLatency):
        return {"kind": "constant", "delay": latency.delay}
    if isinstance(latency, UniformLatency):
        return {
            "kind": "uniform",
            "low": latency.low,
            "high": latency.high,
            "seed": latency.seed,
        }
    raise ReproError(
        f"cannot serialise latency model {type(latency).__name__}; "
        "only ConstantLatency/UniformLatency (or None) dump to JSON"
    )


def _load_latency(document: dict | None) -> LatencyModel | None:
    if document is None:
        return None
    kind = document.get("kind")
    if kind == "constant":
        return ConstantLatency(document["delay"])
    if kind == "uniform":
        return UniformLatency(
            document["low"], document["high"], document.get("seed", 0)
        )
    raise ReproError(f"unknown latency kind {kind!r} in scenario JSON")


def _load_faults(document: Mapping | None) -> "FaultPlan | None":
    if document is None:
        return None
    from repro.faults.plan import FaultPlan

    return FaultPlan.from_json_dict(document)


def _coerce_rule(rule: CoordinationRule | str) -> CoordinationRule:
    if isinstance(rule, CoordinationRule):
        return rule
    rule_id, separator, remainder = rule.partition(":")
    if not separator or not remainder.strip():
        raise ReproError(
            f"cannot parse rule {rule!r}; expected 'rule_id: body -> target: head'"
        )
    return rule_from_text(rule_id.strip(), remainder.strip())


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, replayable description of one network scenario."""

    schemas: Mapping[NodeId, DatabaseSchema]
    rules: tuple[CoordinationRule, ...] = ()
    data: Mapping[NodeId, Mapping[str, tuple[Row, ...]]] = field(default_factory=dict)
    transport: str | BaseTransport = "sync"
    propagation: str = "once"
    latency: LatencyModel | None = None
    super_peer: NodeId | None = None
    strategy: str = "distributed"
    max_messages: int = 1_000_000
    name: str = "scenario"
    #: Shard count for the partitioned transports (``"multiproc"`` /
    #: ``"pooled"`` run one worker OS process per shard, ``"socket"`` one
    #: worker per shard on TCP shard hosts); any other transport refuses it.
    shards: int | None = None
    #: With ``transport="multiproc"``, keep the shard worker processes alive
    #: between runs (the persistent :class:`~repro.sharding.pool.WorkerPool`:
    #: spawn once, ship the worlds once, re-ship only deltas).  Equivalent to
    #: ``transport="pooled"``; with ``transport="socket"`` it selects the warm
    #: socket pool the same way; ignored by the other transports.
    pool: bool = False
    #: ``"HOST:PORT"`` shard-host addresses for ``transport="socket"`` —
    #: every entry a running ``python -m repro.shardhost`` server; shards are
    #: assigned round-robin across them and ``shards`` defaults to one per
    #: host.  ``None`` auto-spawns localhost hosts on the first run (owned by
    #: the session's engine; ``session.close()`` stops them), so specs stay
    #: replayable with no real cluster at hand.
    hosts: tuple[str, ...] | None = None
    #: Trace runs of this scenario: sessions opened on the spec create a
    #: :class:`~repro.obs.Tracer`, wrap each run in spans and attach the
    #: merged timeline to ``RunResult.extras["trace"]`` (see
    #: ``docs/observability.md``).  Off by default — untraced runs stay
    #: bit-identical.
    trace: bool = False
    #: Seeded fault plan for chaos runs: sessions opened on the spec attach a
    #: :class:`~repro.faults.injector.FaultInjector` to the system, and the
    #: process-backed engines fire the plan's worker kills, frame faults and
    #: host partitions at their phase hook points (see ``docs/faults.md``).
    #: ``None`` (the default) injects nothing and costs nothing.
    faults: "FaultPlan | None" = None

    def __post_init__(self) -> None:
        if isinstance(self.transport, str):
            transport_kind(self.transport)  # unknown and removed names raise

    @classmethod
    def of(
        cls,
        schemas: Mapping[NodeId, SchemaInput],
        rules: Iterable[CoordinationRule | str] = (),
        data: Mapping[NodeId, Mapping[str, Iterable[Row]]] | None = None,
        **settings: object,
    ) -> "ScenarioSpec":
        """Build a spec from loosely-typed parts (schema lists, rule strings)."""
        return cls(
            schemas={node: _coerce_schema(schema) for node, schema in schemas.items()},
            rules=tuple(_coerce_rule(rule) for rule in rules),
            data={
                node: {relation: tuple(rows) for relation, rows in relations.items()}
                for node, relations in (data or {}).items()
            },
            **settings,
        )

    @classmethod
    def from_topology(
        cls,
        topology: TopologySpec,
        *,
        records_per_node: int = 100,
        overlap_probability: float = 0.0,
        overlap_fraction: float = 0.5,
        seed: int = 0,
        **settings: object,
    ) -> "ScenarioSpec":
        """The paper's DBLP sharing workload over a topology, as a spec."""
        from repro.workloads.scenarios import dblp_workload_parts

        rules, _assignment, schemas, data = dblp_workload_parts(
            topology,
            records_per_node=records_per_node,
            overlap_probability=overlap_probability,
            overlap_fraction=overlap_fraction,
            seed=seed,
        )
        settings.setdefault("super_peer", topology.nodes[0])
        settings.setdefault("name", f"{topology.name}/n={topology.node_count}")
        settings.setdefault("max_messages", 2_000_000)  # build_dblp_network's bound
        return cls(
            schemas=schemas,
            rules=tuple(rules),
            data={
                node: {relation: tuple(rows) for relation, rows in relations.items()}
                for node, relations in data.items()
            },
            **settings,
        )

    def with_(self, **changes: object) -> "ScenarioSpec":
        """A copy of the spec with some settings replaced."""
        return replace(self, **changes)

    # -------------------------------------------------------------- (de)serialisation

    def dump_json(self, path: str | Path | None = None, *, indent: int = 2) -> str:
        """Serialise the spec to JSON (and write it to ``path`` when given).

        The result round-trips through :meth:`load_json`, so sweep
        configurations can live as checked-in spec files.  Only replayable
        specs serialise: the transport must be a kind string (not a live
        instance) and the latency model constant, uniform or absent.
        """
        if isinstance(self.transport, BaseTransport):
            raise ReproError(
                "cannot dump a spec holding a transport instance; use "
                f"transport={_name_list(transport_names())}"
            )
        document = {
            "format": _SPEC_FORMAT,
            "name": self.name,
            "transport": self.transport,
            "propagation": self.propagation,
            "latency": _dump_latency(self.latency),
            "super_peer": self.super_peer,
            "strategy": self.strategy,
            "max_messages": self.max_messages,
            "shards": self.shards,
            "pool": self.pool,
            "hosts": list(self.hosts) if self.hosts else None,
            "trace": self.trace,
            "faults": self.faults.to_json_dict() if self.faults else None,
            "schemas": {
                node: [
                    {
                        "name": relation.name,
                        "attributes": [
                            {"name": attr.name, "dtype": attr.dtype}
                            for attr in relation.attributes
                        ],
                    }
                    for relation in schema
                ]
                for node, schema in self.schemas.items()
            },
            "rules": [str(rule) for rule in self.rules],
            "data": {
                node: {
                    relation: [list(row) for row in sorted(rows, key=repr)]
                    for relation, rows in relations.items()
                }
                for node, relations in self.data.items()
            },
        }
        text = json.dumps(document, indent=indent)
        if path is not None:
            Path(path).write_text(text + "\n", encoding="utf-8")
        return text

    @classmethod
    def load_json(cls, source: str | Path) -> "ScenarioSpec":
        """Rebuild a spec dumped by :meth:`dump_json`.

        ``source`` is a path to a spec file, or the JSON text itself (any
        string whose first non-blank character is ``{``).
        """
        if isinstance(source, Path):
            text = source.read_text(encoding="utf-8")
        elif source.lstrip().startswith("{"):
            text = source
        else:
            text = Path(source).read_text(encoding="utf-8")
        try:
            document = json.loads(text)
        except json.JSONDecodeError as error:
            raise ReproError(f"invalid scenario JSON: {error}") from None
        if document.get("format") != _SPEC_FORMAT:
            raise ReproError(
                f"unsupported scenario format {document.get('format')!r}; "
                f"expected {_SPEC_FORMAT!r}"
            )
        schemas = {
            node: DatabaseSchema(
                RelationSchema(
                    relation["name"],
                    [
                        Attribute(attr["name"], attr.get("dtype", "str"))
                        for attr in relation["attributes"]
                    ],
                )
                for relation in relations
            )
            for node, relations in document["schemas"].items()
        }
        return cls(
            schemas=schemas,
            rules=tuple(_coerce_rule(rule) for rule in document.get("rules", ())),
            data={
                node: {
                    relation: tuple(tuple(row) for row in rows)
                    for relation, rows in relations.items()
                }
                for node, relations in document.get("data", {}).items()
            },
            transport=document.get("transport", "sync"),
            propagation=document.get("propagation", "once"),
            latency=_load_latency(document.get("latency")),
            super_peer=document.get("super_peer"),
            strategy=document.get("strategy", "distributed"),
            max_messages=document.get("max_messages", 1_000_000),
            name=document.get("name", "scenario"),
            shards=document.get("shards"),
            pool=document.get("pool", False),
            hosts=tuple(document["hosts"]) if document.get("hosts") else None,
            trace=document.get("trace", False),
            faults=_load_faults(document.get("faults")),
        )

    @property
    def node_count(self) -> int:
        """Number of peers the spec declares."""
        return len(self.schemas)

    @property
    def total_rows(self) -> int:
        """Total number of initial rows across all nodes and relations."""
        return sum(
            len(rows)
            for relations in self.data.values()
            for rows in relations.values()
        )

    def build_system(self) -> P2PSystem:
        """Assemble the spec into a fresh :class:`~repro.core.system.P2PSystem`.

        A spec is replayable — each call builds an independent system — except
        when it holds a *transport instance*, which can only back one system
        (its peer registry and statistics are per-system state); in that case
        a second build raises :class:`ReproError`.  Pass a transport name
        (``"sync"``, ``"multiproc"``, ...) to keep the spec fully replayable.
        """
        from repro.core.system import P2PSystem

        if isinstance(self.transport, BaseTransport) and self.transport.peers:
            raise ReproError(
                "this spec holds a transport instance that already backs a "
                "system; use a transport name for a replayable spec"
            )
        transport = self.transport
        partitioned = transport_names(partitioned=True)
        if self.shards is not None and transport not in partitioned:
            raise ReproError(
                f"shards={self.shards} needs a partitioned transport, but "
                f"the spec selects {_transport_label(transport)}; "
                "drop the shards setting or use "
                f"transport={_name_list(partitioned)}"
            )
        # A live process-backed transport instance already satisfies the pool
        # flag; everything else cannot pool.
        if self.pool and getattr(transport, "kind", transport) not in partitioned:
            raise ReproError(
                f"pool=True needs the multiproc or socket transport, but "
                f"the spec selects {_transport_label(transport)}; "
                f"use transport={_name_list(partitioned)} with the pool flag"
            )
        if self.hosts and transport != "socket":
            # A transport *instance* carries its own hosts; spec-level hosts
            # only make sense when the spec builds the transport itself.
            raise ReproError(
                f"hosts= needs transport='socket', but the spec selects "
                f"{_transport_label(transport)}"
            )
        if self.faults is not None:
            if transport not in partitioned:
                raise ReproError(
                    "faults= needs a process-backed transport "
                    f"({_name_list(partitioned)}), but the spec selects "
                    f"{_transport_label(transport)}; the in-process transport "
                    "has no workers to kill or frames to drop"
                )
            if transport != "socket" and any(
                fault.kind == "partition" for fault in self.faults.faults
            ):
                raise ReproError(
                    "partition faults need transport='socket' (partitions cut "
                    "coordinator-to-host links), but the spec selects "
                    f"{_transport_label(transport)}"
                )
        return P2PSystem.build(
            self.schemas,
            self.rules,
            self.data or None,
            transport=transport,
            propagation=self.propagation,
            latency=self.latency,
            super_peer=self.super_peer,
            max_messages=self.max_messages,
            shards=self.shards,
            pool=self.pool,
            hosts=self.hosts,
        )


class NetworkBuilder:
    """Fluent construction of a :class:`ScenarioSpec` (and of sessions)."""

    def __init__(self, name: str = "network"):
        self._name = name
        self._schemas: dict[NodeId, DatabaseSchema] = {}
        self._rules: list[CoordinationRule] = []
        self._data: dict[NodeId, dict[str, list[Row]]] = {}
        self._settings: dict[str, object] = {}

    def node(
        self,
        node_id: NodeId,
        *relations: RelationSchema | DatabaseSchema,
    ) -> "NetworkBuilder":
        """Declare a peer and its shared relations."""
        if node_id in self._schemas:
            raise ReproError(f"node {node_id!r} is already declared")
        if len(relations) == 1 and isinstance(relations[0], DatabaseSchema):
            schema = relations[0]
        else:
            schema = DatabaseSchema(relations)
        self._schemas[node_id] = schema
        return self

    def rule(self, rule: CoordinationRule | str) -> "NetworkBuilder":
        """Add a coordination rule (an object or ``'id: body -> target'`` text)."""
        self._rules.append(_coerce_rule(rule))
        return self

    def rules(self, rules: Iterable[CoordinationRule | str]) -> "NetworkBuilder":
        """Add several coordination rules at once."""
        for rule in rules:
            self.rule(rule)
        return self

    def data(
        self, node_id: NodeId, relation: str, rows: Iterable[Row]
    ) -> "NetworkBuilder":
        """Load initial rows into one relation of one peer."""
        self._data.setdefault(node_id, {}).setdefault(relation, []).extend(rows)
        return self

    def transport(self, kind: str | BaseTransport) -> "NetworkBuilder":
        """Select the transport: ``"sync"``, ``"multiproc"``, ``"pooled"``,
        ``"socket"`` or an instance."""
        if isinstance(kind, str):
            transport_kind(kind)  # unknown and removed names raise
        self._settings["transport"] = kind
        return self

    def shards(self, count: int) -> "NetworkBuilder":
        """Run over a partitioned transport with ``count`` shards.

        Combine with ``.transport("multiproc")`` for one worker process per
        shard, or call :meth:`pooled` to keep those processes warm between
        runs; the ``"sync"`` transport refuses a shard count.
        """
        self._settings["shards"] = count
        return self

    def pooled(self, shards: int | None = None) -> "NetworkBuilder":
        """Run over the persistent multi-process worker pool.

        One worker OS process per shard, spawned on the session's first run
        and kept warm for every later one (only data/rule deltas are
        re-shipped).  ``shards`` optionally sets the shard count in the same
        call; close the session (``session.close()`` or a ``with`` block) to
        stop the workers.
        """
        self._settings["transport"] = "pooled"
        if shards is not None:
            self._settings["shards"] = shards
        return self

    def socketed(
        self,
        hosts: Iterable[str] | None = None,
        *,
        shards: int | None = None,
        pooled: bool = False,
    ) -> "NetworkBuilder":
        """Run over TCP shard hosts (``python -m repro.shardhost`` servers).

        ``hosts`` lists their ``"HOST:PORT"`` addresses — shards are assigned
        round-robin across them, and the shard count defaults to one per
        host; ``None`` auto-spawns localhost hosts on the first run (closed
        with the session).  ``pooled=True`` keeps the host connections and
        workers warm between runs, re-shipping only structural deltas, like
        :meth:`pooled` does for the in-box worker pool.
        """
        self._settings["transport"] = "socket"
        if hosts is not None:
            self._settings["hosts"] = tuple(hosts)
        if shards is not None:
            self._settings["shards"] = shards
        if pooled:
            self._settings["pool"] = True
        return self

    def propagation(self, policy: str) -> "NetworkBuilder":
        """Select the query propagation policy of every node."""
        self._settings["propagation"] = policy
        return self

    def latency(self, model: LatencyModel) -> "NetworkBuilder":
        """Select the latency model of the transport."""
        self._settings["latency"] = model
        return self

    def super_peer(self, node_id: NodeId) -> "NetworkBuilder":
        """Designate the super-peer."""
        self._settings["super_peer"] = node_id
        return self

    def strategy(self, name: str) -> "NetworkBuilder":
        """Select the default update strategy of sessions built from the spec."""
        self._settings["strategy"] = name
        return self

    def max_messages(self, count: int) -> "NetworkBuilder":
        """Bound the number of deliveries before a run is declared divergent."""
        self._settings["max_messages"] = count
        return self

    def build(self) -> ScenarioSpec:
        """Freeze the builder into a :class:`ScenarioSpec`."""
        if not self._schemas:
            raise ReproError("a network needs at least one node")
        return ScenarioSpec(
            schemas=dict(self._schemas),
            rules=tuple(self._rules),
            data={
                node: {relation: tuple(rows) for relation, rows in relations.items()}
                for node, relations in self._data.items()
            },
            name=self._name,
            **self._settings,
        )

    def session(self) -> "Session":
        """Build the spec and open a :class:`~repro.api.session.Session` on it."""
        from repro.api.session import Session

        return Session.from_spec(self.build())
