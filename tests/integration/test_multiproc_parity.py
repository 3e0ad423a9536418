"""State parity of the multi-process engine against the synchronous reference.

The acceptance bar of the multiproc subsystem: whatever the partitioning and however the OS schedules the shard workers,
the ``multiproc`` ``ProcessEngine`` must drive the update protocol to the same per-node
ground state as ``SyncEngine`` on the paper's three topology families and
the Section 2 example, at K=1 (one worker process) and K=4 (real
cross-process traffic).  The per-shard counters must also tell the story of
the shard plan the engine applied.

These tests fork real worker processes, so topologies are kept small.
"""

import pytest

from repro.api import ScenarioSpec, Session
from repro.sharding import ShardPlanner
from repro.workloads.scenarios import (
    paper_example_data,
    paper_example_rules,
    paper_example_schemas,
)
from repro.workloads.topologies import (
    clique_topology,
    layered_topology,
    tree_topology,
)

TOPOLOGIES = {
    "tree": lambda: tree_topology(2, 2),  # 7 nodes
    "layered": lambda: layered_topology(2, 3, seed=1),  # 9 nodes
    "clique": lambda: clique_topology(4),  # 12 import edges, cyclic
}


def _run(spec: ScenarioSpec):
    session = Session.from_spec(spec)
    session.run("discovery")
    result = session.update()
    return session, result


class TestMultiprocParity:
    @pytest.mark.parametrize("family", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("shards", [1, 4])
    def test_multiproc_matches_sync_on_dblp_topologies(self, family, shards):
        spec = ScenarioSpec.from_topology(
            TOPOLOGIES[family](), records_per_node=5, seed=7
        )
        _sync_session, sync_result = _run(spec)
        multiproc_session, multiproc_result = _run(
            spec.with_(transport="multiproc", shards=shards)
        )

        assert multiproc_result.engine == "multiproc"
        assert sync_result.engine == "sync"
        assert (
            multiproc_result.ground_databases() == sync_result.ground_databases()
        )
        traffic = multiproc_result.stats.sharding
        assert traffic is not None
        assert traffic.shard_count == min(
            shards, len(multiproc_session.system.nodes)
        )
        if shards == 1:
            assert traffic.cross_shard_messages == 0
        else:
            assert traffic.cross_shard_messages > 0

    @pytest.mark.parametrize("shards", [1, 4])
    def test_multiproc_matches_sync_on_the_paper_example(self, shards):
        # The Section 2 example is cyclic and generates labelled nulls, so it
        # exercises the chase across process boundaries: nulls invented in
        # one worker must compare equal when they arrive in another.
        spec = ScenarioSpec.of(
            paper_example_schemas(),
            paper_example_rules(),
            paper_example_data(),
            super_peer="A",
        )
        _sync_session, sync_result = _run(spec)
        _multiproc_session, multiproc_result = _run(
            spec.with_(transport="multiproc", shards=shards)
        )
        assert (
            multiproc_result.ground_databases() == sync_result.ground_databases()
        )

    def test_cross_shard_traffic_follows_the_shard_plan_cut(self):
        # The engine partitions with the ShardPlanner; each worker delivers
        # exactly the messages addressed to the peers the plan gave it, and
        # real traffic crosses the plan's cut while most stays local.
        spec = ScenarioSpec.from_topology(
            tree_topology(3, 2), records_per_node=3, seed=0
        )
        session = Session.from_spec(spec.with_(transport="multiproc", shards=4))
        result = session.run("update")

        plan = session.system.transport.plan
        assert plan.shard_of == ShardPlanner(4).plan_system(session.system).shard_of
        assert plan.cut_edges()
        traffic = result.stats.sharding
        assert traffic.shard_count == plan.shard_count
        for shard in range(plan.shard_count):
            assert traffic.messages_by_shard[shard] == sum(
                result.stats.nodes[node].messages_received
                for node in plan.members(shard)
            )
        assert 0 < traffic.cross_shard_messages < traffic.total_messages
        assert traffic.cut_ratio < 0.5

    def test_discovery_parity_under_multiproc(self):
        # Topology discovery also runs across the cut; the Paths relations
        # the workers materialise must match the synchronous run.
        spec = ScenarioSpec.of(
            paper_example_schemas(),
            paper_example_rules(),
            paper_example_data(),
            super_peer="A",
        )
        sessions = [
            Session.from_spec(spec),
            Session.from_spec(spec.with_(transport="multiproc", shards=3)),
        ]
        paths = []
        for session in sessions:
            session.run("discovery")
            paths.append(
                {
                    node_id: node.state.maximal_paths()
                    for node_id, node in session.system.nodes.items()
                }
            )
        assert paths[0] == paths[1]

    def test_multiproc_reaches_closure_and_satisfies_rules(self):
        from repro.core.fixpoint import all_nodes_closed, satisfies_all_rules

        spec = ScenarioSpec.from_topology(
            tree_topology(2, 2), records_per_node=5, seed=7
        ).with_(transport="multiproc", shards=4)
        session, _result = _run(spec)
        # The merge step folds the workers' closed flags and final relations
        # back into the coordinator system, so the usual fix-point checks
        # work on it unchanged.
        assert all_nodes_closed(session.system)
        assert satisfies_all_rules(session.system)

    def test_spec_round_trips_the_multiproc_transport(self, tmp_path):
        spec = ScenarioSpec.from_topology(
            tree_topology(1, 2), records_per_node=2, seed=0
        ).with_(transport="multiproc", shards=2)
        path = tmp_path / "spec.json"
        spec.dump_json(path)
        loaded = ScenarioSpec.load_json(path)
        assert loaded.transport == "multiproc"
        assert loaded.shards == 2
        _session, result = _run(loaded)
        assert result.engine == "multiproc"
