"""Shared experiment runner: build a network, run both phases, collect metrics.

Every experiment module builds on :func:`run_dblp_update` (DBLP workload over
a topology, :meth:`~repro.api.ScenarioSpec.from_topology`) or
:func:`run_system_update` (an already assembled system).  Both
run the paper's distributed algorithm through the unified
:class:`repro.api.Session` façade; the reference strategies are compared in
E9 (:mod:`repro.experiments.baseline_comparison`).  The returned
:class:`UpdateRunResult` carries exactly the quantities the paper's
statistics module accumulated: simulated execution time, message
counts by phase and type, data volumes, per-node counters, and the
fix-point indicators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.session import Session
from repro.api.spec import ScenarioSpec
from repro.core.fixpoint import all_nodes_closed, satisfies_all_rules
from repro.core.system import P2PSystem
from repro.network.message import MessageType
from repro.stats.collector import StatsSnapshot
from repro.workloads.topologies import TopologySpec


@dataclass
class UpdateRunResult:
    """Metrics of one discovery + update run."""

    label: str
    node_count: int
    depth: int
    records_per_node: int
    overlap_probability: float
    discovery_time: float
    discovery_messages: int
    update_time: float
    update_messages: int
    total_messages: int
    total_bytes: int
    query_messages: int
    answer_messages: int
    duplicate_queries: int
    tuples_transferred: int
    tuples_inserted: int
    all_closed: bool
    fixpoint_reached: bool
    per_node: dict[str, dict[str, int]] = field(default_factory=dict)

    def as_row(self) -> list[object]:
        """The row most experiment tables print."""
        return [
            self.label,
            self.node_count,
            self.depth,
            self.discovery_messages,
            self.update_messages,
            self.update_time,
            self.tuples_inserted,
            self.all_closed,
        ]


def _per_node_counters(snapshot: StatsSnapshot) -> dict[str, dict[str, int]]:
    return {
        node_id: {
            "queries_executed": stats.queries_executed,
            "updates_applied": stats.updates_applied,
            "tuples_received": stats.tuples_received,
            "tuples_inserted": stats.tuples_inserted,
            "messages_sent": stats.messages_sent,
            "messages_received": stats.messages_received,
            "duplicate_queries": stats.duplicate_queries,
        }
        for node_id, stats in snapshot.nodes.items()
    }


def run_system_update(
    system: P2PSystem,
    *,
    label: str = "system",
    depth: int = 0,
    records_per_node: int = 0,
    overlap_probability: float = 0.0,
    run_discovery: bool = True,
    check_fixpoint: bool = True,
) -> UpdateRunResult:
    """Run discovery (optionally) and the paper's update on an assembled system."""
    session = Session(system)

    discovery_time = 0.0
    discovery_messages = 0
    if run_discovery:
        discovery = session.run("discovery")
        discovery_time = discovery.completion_time
        discovery_messages = discovery.stats.total_messages

    update_start_messages = session.snapshot_stats().total_messages
    update_clock_start = getattr(system.transport, "clock", 0.0)
    result = session.run("update")
    snapshot = session.snapshot_stats()

    return UpdateRunResult(
        label=label,
        node_count=len(system.nodes),
        depth=depth,
        records_per_node=records_per_node,
        overlap_probability=overlap_probability,
        discovery_time=discovery_time,
        discovery_messages=discovery_messages,
        update_time=result.completion_time - update_clock_start,
        update_messages=snapshot.total_messages - update_start_messages,
        total_messages=snapshot.total_messages,
        total_bytes=snapshot.messages.total_bytes,
        query_messages=snapshot.messages.by_type.get(MessageType.QUERY.value, 0),
        answer_messages=snapshot.messages.by_type.get(MessageType.ANSWER.value, 0),
        duplicate_queries=snapshot.total_duplicate_queries,
        tuples_transferred=snapshot.total_tuples_transferred,
        tuples_inserted=snapshot.total_tuples_inserted,
        all_closed=all_nodes_closed(system),
        fixpoint_reached=satisfies_all_rules(system) if check_fixpoint else True,
        per_node=_per_node_counters(snapshot),
    )


def run_dblp_update(
    topology: TopologySpec,
    *,
    records_per_node: int = 50,
    overlap_probability: float = 0.0,
    overlap_fraction: float = 0.5,
    seed: int = 0,
    propagation: str = "once",
    label: str | None = None,
    check_fixpoint: bool = False,
) -> tuple[ScenarioSpec, UpdateRunResult]:
    """Build the DBLP workload for a topology and run discovery + update."""
    spec = ScenarioSpec.from_topology(
        topology,
        records_per_node=records_per_node,
        overlap_probability=overlap_probability,
        overlap_fraction=overlap_fraction,
        seed=seed,
        propagation=propagation,
    )
    result = run_system_update(
        spec.build_system(),
        label=label or spec.name,
        depth=topology.depth,
        records_per_node=records_per_node,
        overlap_probability=overlap_probability,
        check_fixpoint=check_fixpoint,
    )
    return spec, result
