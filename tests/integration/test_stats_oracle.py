"""Statistics assembled from the counters that moved equal a full scan.

``StatisticsCollector.snapshot`` re-assembles only the nodes whose counters
moved since the previous snapshot, and ``incremental_totals`` is kept as the
counters are recorded and merged.  The oracle here is what the collector
did before: walk every counter of the registry and rebuild ``nodes``,
``messages`` and the incremental totals from scratch.  The two must agree on
every row of the engine table at every point of a session's life — cold, warm, idle, after
a delete, a reset and a pool respawned by a fault.
"""

import pytest

from repro.api import ScenarioSpec, Session
from repro.experiments.serving import feeding_site
from repro.faults.plan import FaultPlan, FaultSpec
from repro.stats.collector import MessageStats, NodeStats
from repro.workloads.topologies import tree_topology
from engines import ENGINES, PARTITIONED

NODE_FIELDS = {
    "repro_node_queries_total": "queries_executed",
    "repro_node_duplicate_queries_total": "duplicate_queries",
    "repro_node_updates_applied_total": "updates_applied",
    "repro_node_tuples_received_total": "tuples_received",
    "repro_node_tuples_inserted_total": "tuples_inserted",
    "repro_node_messages_sent_total": "messages_sent",
    "repro_node_messages_received_total": "messages_received",
}
INCREMENTAL = (
    "repro_incremental_seed_rows_total",
    "repro_incremental_rules_fired_total",
    "repro_incremental_rows_derived_total",
    "repro_incremental_pushes_total",
)


def scanned(collector):
    """``(nodes, messages, incremental totals)`` by a full registry scan."""
    nodes, messages = {}, MessageStats()
    totals = dict.fromkeys(INCREMENTAL, 0)
    for counter in collector.registry.counters.values():
        if counter.name in totals:
            totals[counter.name] += counter.value
        if not counter.labels:
            continue
        label = counter.labels[0][1]
        field = NODE_FIELDS.get(counter.name)
        if field is not None:
            stats = nodes.setdefault(label, NodeStats())
            setattr(stats, field, getattr(stats, field) + counter.value)
        elif counter.name == "repro_messages_total":
            messages.total_messages += counter.value
            messages.by_type[label] += counter.value
        elif counter.name == "repro_message_bytes_total":
            messages.total_bytes += counter.value
            messages.bytes_by_type[label] += counter.value
    return nodes, messages, totals


def assert_matches_the_scan(session, result=None):
    collector = session.system.stats
    nodes, messages, totals = scanned(collector)
    for snapshot in filter(None, (result and result.stats, session.snapshot_stats())):
        assert snapshot.nodes == nodes
        assert snapshot.messages == messages
    assert collector.incremental_totals() == totals
    for node_id in (*session.system.nodes, "no-such-node"):
        assert collector.node(node_id) == nodes.get(node_id, NodeStats())


@pytest.mark.parametrize("engine", ENGINES)
def test_snapshots_equal_a_full_registry_scan(engine, on_engine):
    spec = ScenarioSpec.from_topology(tree_topology(3, 2), records_per_node=3, seed=0)
    if engine in PARTITIONED:
        # Run 5 is killed mid-chase and re-run cold on a fresh pool.
        plan = FaultPlan(
            max_cold_reruns=1,
            faults=[FaultSpec(kind="kill_worker", phase="chase", run_index=5)],
        )
        spec = on_engine(spec, engine, faults=plan)
    else:
        spec = on_engine(spec, engine)
    node, relation_name, arity = feeding_site(spec)
    with Session.from_spec(spec) as session:
        site = session.system.node(node).database.relation(relation_name)
        assert_matches_the_scan(session, session.run("update"))  # cold
        row = tuple(f"oracle-{column}" for column in range(arity))
        site.insert(row)
        inserted = session.run("update")
        assert inserted.tuples_added > 0
        assert_matches_the_scan(session, inserted)  # warm insert
        assert_matches_the_scan(session, session.run("update"))  # no change
        site.delete(row)
        assert_matches_the_scan(session, session.run("update"))  # delete
        session.reset_statistics()
        assert_matches_the_scan(session)
        assert session.snapshot_stats().nodes == {}
        assert_matches_the_scan(session, session.run("update"))
        site.insert(tuple(f"respawn-{column}" for column in range(arity)))
        respawned = session.run("update")
        assert_matches_the_scan(session, respawned)  # after the fault, if any
        if engine in PARTITIONED:
            registry = session.system.stats.registry
            assert registry.total("repro_fault_cold_reruns_total") == 1
