"""repro — a reproduction of "A Distributed Algorithm for Robust Data Sharing
and Updates in P2P Database Networks" (Franconi, Kuper, Lopatenko, Zaihrayeu;
EDBT P2P&DB workshop, 2004).

The package implements the paper's P2P database model (local relational
databases connected by coordination rules), its distributed topology-discovery
and update algorithms, the dynamic-network semantics of Section 4, the
baselines it is positioned against, and the synthetic workloads and experiment
harness that regenerate its evaluation.

Quickstart::

    from repro import Session, build_paper_example

    session = Session(build_paper_example())
    session.run("discovery")
    result = session.update()          # shorthand for session.run("update")
    print(result.completion_time, result.tuples_added)
    print(session.query("A", "q(X, Y) :- a(X, Y)"))

Every network is described by one :class:`ScenarioSpec` (schemas, rules,
data and settings): ``Session.from_spec(spec)`` checks and opens it, and
``spec.build_system()`` — the one assembler — only builds the system
(``build_paper_example`` is the Section 2 example built that way).

See README.md for the architecture overview, the new-API quickstart and the
old → new migration table.
"""

from repro.errors import (
    ReproError,
    SchemaError,
    QueryError,
    RuleError,
    NetworkError,
    ProtocolError,
    TerminationError,
    ChangeError,
)
from repro.database import (
    Attribute,
    RelationSchema,
    DatabaseSchema,
    Relation,
    LocalDatabase,
    LabeledNull,
    Variable,
    Constant,
    Atom,
    Comparison,
    ConjunctiveQuery,
    parse_query,
    parse_atom,
)
from repro.coordination import (
    CoordinationRule,
    rule_from_text,
    RuleRegistry,
    DependencyGraph,
    maximal_dependency_paths,
)
from repro.network import (
    Message,
    MessageType,
    SyncTransport,
    ConstantLatency,
    UniformLatency,
)
from repro.core import (
    PeerNode,
    P2PSystem,
    AddLink,
    DeleteLink,
    NetworkChange,
    sound_envelope,
    complete_envelope,
    is_sound_answer,
    is_complete_answer,
    verify_against_centralized,
)
from repro.api import (
    Session,
    ScenarioSpec,
    RunResult,
    ExecutionEngine,
    SyncEngine,
    engine_for,
)
from repro.baselines import centralized_update, acyclic_update, query_time_answer
from repro.workloads import (
    DblpGenerator,
    TopologySpec,
    tree_topology,
    layered_topology,
    clique_topology,
    chain_topology,
    star_topology,
    random_topology,
    build_paper_example,
)
from repro.sharding import ShardPlan, ShardPlanner
from repro.stats import StatisticsCollector, format_table

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "SchemaError",
    "QueryError",
    "RuleError",
    "NetworkError",
    "ProtocolError",
    "TerminationError",
    "ChangeError",
    # database
    "Attribute",
    "RelationSchema",
    "DatabaseSchema",
    "Relation",
    "LocalDatabase",
    "LabeledNull",
    "Variable",
    "Constant",
    "Atom",
    "Comparison",
    "ConjunctiveQuery",
    "parse_query",
    "parse_atom",
    # coordination
    "CoordinationRule",
    "rule_from_text",
    "RuleRegistry",
    "DependencyGraph",
    "maximal_dependency_paths",
    # network
    "Message",
    "MessageType",
    "SyncTransport",
    "ConstantLatency",
    "UniformLatency",
    # core
    "PeerNode",
    "P2PSystem",
    "AddLink",
    "DeleteLink",
    "NetworkChange",
    "sound_envelope",
    "complete_envelope",
    "is_sound_answer",
    "is_complete_answer",
    "verify_against_centralized",
    # api façade
    "Session",
    "ScenarioSpec",
    "RunResult",
    "ExecutionEngine",
    "SyncEngine",
    "engine_for",
    # sharding
    "ShardPlan",
    "ShardPlanner",
    # baselines
    "centralized_update",
    "acyclic_update",
    "query_time_answer",
    # workloads
    "DblpGenerator",
    "TopologySpec",
    "tree_topology",
    "layered_topology",
    "clique_topology",
    "chain_topology",
    "star_topology",
    "random_topology",
    "build_paper_example",
    # stats
    "StatisticsCollector",
    "format_table",
]
