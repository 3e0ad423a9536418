"""State parity of the socket-backed engines against the synchronous reference.

The acceptance bar for the cross-machine engines mirrors the pool's:
whatever the partitioning (K=1 and K=4), however the shards are spread over
the hosts (two hosts, so K=4 co-hosts two workers per host *and* routes real
cross-host traffic through the coordinator), and whatever changes between
runs (new facts, ``addLink``, ``deleteLink``), both
the ``socket`` (one-shot) and ``socket-pooled`` (warm)
:class:`~repro.sharding.process.ProcessEngine` must keep every
run's final per-node ground state identical to a
:class:`~repro.api.engine.SyncEngine` session executing the same sequence on
the paper's three topology families and the Section 2 example.

Hosts are real ``python -m repro.shardhost`` subprocesses, shared
module-wide so the whole suite pays interpreter start-up twice; one test
additionally exercises the no-hosts auto-spawn path end to end.
"""

import pytest

from repro.api import ScenarioSpec, Session
from repro.coordination.rule import rule_from_text
from repro.core.fixpoint import ground_part
from repro.sharding.sockets import LocalHostCluster
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


@pytest.fixture(scope="module")
def cluster():
    """Two real shard-host subprocesses shared by the whole module."""
    with LocalHostCluster(2) as cluster:
        yield cluster


def socketed(spec: ScenarioSpec, cluster, shards: int, **extra) -> ScenarioSpec:
    return spec.with_(
        transport="socket",
        shards=shards,
        hosts=tuple(cluster.addresses),
        **extra,
    )


def _run(spec: ScenarioSpec):
    session = Session.from_spec(spec)
    session.run("discovery")
    result = session.update()
    return session, result


def _filler_rows(system, node, relation, count=2, tag="warm"):
    """Well-typed new rows for one relation of one node."""
    arity = len(
        next(
            schema for schema in system.node(node).database.schema
            if schema.name == relation
        ).attributes
    )
    return [
        tuple(f"{tag}-{i}-{k}" for k in range(arity)) for i in range(count)
    ]


def _cross_rule(system, rule_id="warm-add"):
    """A new rule importing the last node's first relation into the first node."""
    nodes = sorted(system.nodes)
    target, source = nodes[0], nodes[-1]
    source_relation = sorted(system.node(source).database.facts())[0]
    arity = len(
        next(
            schema for schema in system.node(source).database.schema
            if schema.name == source_relation
        ).attributes
    )
    target_relation, head_arity = next(
        (schema.name, len(schema.attributes))
        for schema in system.node(target).database.schema
        if len(schema.attributes) <= arity
    )
    body = ", ".join(f"V{i}" for i in range(arity))
    head = ", ".join(f"V{i}" for i in range(head_arity))
    return rule_from_text(
        rule_id,
        f"{source}: {source_relation}({body}) -> {target}: {target_relation}({head})",
    )


class TestSocketParity:
    @pytest.mark.parametrize("family", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("shards", [1, 4])
    def test_socket_matches_sync_on_dblp_topologies(
        self, cluster, family, shards
    ):
        spec = ScenarioSpec.from_topology(
            TOPOLOGIES[family](), records_per_node=5, seed=7
        )
        _sync_session, sync_result = _run(spec)
        with Session.from_spec(socketed(spec, cluster, shards)) as session:
            session.run("discovery")
            socket_result = session.update()
            assert socket_result.engine == "socket"
            assert (
                socket_result.ground_databases() == sync_result.ground_databases()
            )
            # The static witness of cross-shard traffic: rules span the cut.
            cut = session.system.transport.plan.cut_edges()
            assert bool(cut) == (shards > 1)

    @pytest.mark.parametrize("shards", [1, 4])
    def test_socket_matches_sync_on_the_paper_example(self, cluster, shards):
        # Cyclic, with labelled nulls invented on one host and compared on
        # another — and chased twice over the same fleet, which must not
        # mint spurious new witnesses.
        spec = ScenarioSpec.of(
            paper_example_schemas(),
            paper_example_rules(),
            paper_example_data(),
            super_peer="A",
        )
        _sync_session, sync_result = _run(spec)
        with Session.from_spec(socketed(spec, cluster, shards)) as session:
            session.run("discovery")
            session.update()
            repeat = session.update()
            assert repeat.ground_databases() == sync_result.ground_databases()

    @pytest.mark.parametrize("shards", [1, 4])
    def test_warm_runs_stay_in_parity_across_link_changes(self, cluster, shards):
        """addLink / deleteLink / inserts between runs on one warm socket pool.

        The sequence — update, insert new facts, update, addLink, update,
        deleteLink, update — is mirrored step by step on a sync session, and
        every step's ground state must match.  The pool keeps its partition
        for life, so the same pool serves the whole sequence.
        """
        spec = ScenarioSpec.from_topology(
            tree_topology(2, 2), records_per_node=3, seed=1
        )
        sync_session = Session.from_spec(spec)
        pooled_spec = socketed(spec, cluster, shards, pool=True)
        with Session.from_spec(pooled_spec) as pooled:
            assert pooled.engine.name == "socket-pooled"

            def step(mutate=None):
                for session in (sync_session, pooled):
                    if mutate is not None:
                        mutate(session.system)
                    session.update()
                assert ground_part(pooled.databases()) == ground_part(
                    sync_session.databases()
                )

            sync_session.run("discovery")
            pooled.run("discovery")
            pool = pooled.engine.pool
            step()

            leaf = sorted(spec.schemas)[-1]
            relation = sorted(spec.data[leaf])[0]
            rows = _filler_rows(sync_session.system, leaf, relation)
            step(lambda system: system.load_data({leaf: {relation: rows}}))

            rule = _cross_rule(sync_session.system)
            step(lambda system: system.add_rule(rule))

            step(lambda system: system.remove_rule(rule.rule_id))
            assert pooled.engine.pool is pool

    def test_connections_stay_warm_across_runs(self, cluster):
        """Repeat runs reuse the same pool and connections (that is the point)."""
        spec = socketed(
            ScenarioSpec.from_topology(tree_topology(2, 2), records_per_node=3, seed=0),
            cluster,
            2,
            pool=True,
        )
        with Session.from_spec(spec) as session:
            session.run("update")
            pool = session.engine.pool
            assert pool is not None and pool.alive
            session.run("update")
            session.run("update")
            assert session.engine.pool is pool
            assert pool.alive

    def test_completion_times_stay_monotone_across_runs(self, cluster):
        # Worker virtual clocks restart from the coordinator's simulated
        # time on every (re)ship, so consecutive runs report non-decreasing
        # completion times on the one-shot engine too.
        spec = socketed(
            ScenarioSpec.from_topology(tree_topology(2, 2), records_per_node=3, seed=0),
            cluster,
            2,
        )
        with Session.from_spec(spec) as session:
            first = session.run("update")
            second = session.run("update")
            assert second.completion_time >= first.completion_time

    def test_socket_reaches_closure_and_satisfies_rules(self, cluster):
        from repro.core.fixpoint import all_nodes_closed, satisfies_all_rules

        spec = socketed(
            ScenarioSpec.from_topology(tree_topology(2, 2), records_per_node=5, seed=7),
            cluster,
            4,
        )
        with Session.from_spec(spec) as session:
            session.run("discovery")
            session.update()
            assert all_nodes_closed(session.system)
            assert satisfies_all_rules(session.system)

    def test_spec_round_trips_the_socket_transport(self, cluster, tmp_path):
        spec = socketed(
            ScenarioSpec.from_topology(tree_topology(1, 2), records_per_node=2, seed=0),
            cluster,
            2,
        )
        path = tmp_path / "spec.json"
        spec.dump_json(path)
        loaded = ScenarioSpec.load_json(path)
        assert loaded.transport == "socket"
        assert loaded.shards == 2
        assert loaded.hosts == tuple(cluster.addresses)
        with Session.from_spec(loaded) as session:
            result = session.run("update")
            assert result.engine == "socket"

    def test_auto_spawned_hosts_cover_the_no_cluster_path(self):
        # No hosts given: the engine spawns localhost hosts on first run and
        # the session's close() tears them down — the configuration CI's
        # socket-smoke job and the CLI sweep rely on.
        spec = ScenarioSpec.from_topology(
            tree_topology(1, 2), records_per_node=2, seed=0
        ).with_(transport="socket", shards=2)
        sync_session, sync_result = _run(spec.with_(transport="sync", shards=None))
        with Session.from_spec(spec) as session:
            session.run("discovery")
            result = session.update()
            assert result.ground_databases() == sync_result.ground_databases()
            cluster = session.engine.cluster
            assert cluster is not None and cluster.alive
        assert cluster.host_count == 0  # closed with the session
