"""State parity of every process-backed engine against the synchronous reference.

Whatever the partitioning (K=1, one worker, and K=4, real cross-shard
traffic), however the OS schedules the workers and whatever changes between
runs (new facts, ``addLink``, ``deleteLink``, a joining peer), each engine of
the shared table (``tests/engines.py``) must reach the per-node ground state
of a :class:`~repro.api.engine.SyncEngine` session executing the same
sequence, on the paper's three topology families and the Section 2 example.
The socket rows run on the test session's two shard hosts, so K=4 co-hosts
two workers per host and routes cross-host traffic through the coordinator.

The checks that hold for one kind of engine only are rows limited to it: the
plan cut (``multiproc``), planning without a pool (the one-shot engines), a
peer joining a warm session and warmth itself (the warm engines), and the
hosts a ``socket`` engine spawns when given none.
"""

import pytest

from repro.api import ScenarioSpec, Session
from repro.coordination.rule import rule_from_text
from repro.core.fixpoint import all_nodes_closed, ground_part, satisfies_all_rules
from repro.database.schema import RelationSchema
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
from engines import ENGINES, ONE_SHOT, PARTITIONED, WARM

TOPOLOGIES = {
    "tree": lambda: tree_topology(2, 2),  # 7 nodes
    "layered": lambda: layered_topology(2, 3, seed=1),  # 9 nodes
    "clique": lambda: clique_topology(4),  # 12 import edges, cyclic
}


def paper_spec() -> ScenarioSpec:
    return ScenarioSpec.of(
        paper_example_schemas(),
        paper_example_rules(),
        paper_example_data(),
        super_peer="A",
    )


def tree_spec(records: int = 3, seed: int = 0) -> ScenarioSpec:
    return ScenarioSpec.from_topology(
        tree_topology(2, 2), records_per_node=records, seed=seed
    )


def sync_result(spec: ScenarioSpec):
    with Session.from_spec(spec) as session:
        session.run("discovery")
        return session.update()


def _filler_rows(system, node, relation, count=2, tag="warm"):
    """Well-typed new rows for one relation of one node."""
    arity = system.node(node).database.relation(relation).schema.arity
    return [tuple(f"{tag}-{i}-{k}" for k in range(arity)) for i in range(count)]


def _cross_rule(system, rule_id="warm-add"):
    """A new rule importing the last node's first relation into the first node."""
    nodes = sorted(system.nodes)
    target, source = nodes[0], nodes[-1]
    source_relation = sorted(system.node(source).database.facts())[0]
    arity = system.node(source).database.relation(source_relation).schema.arity
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


class TestEngineParity:
    @pytest.mark.parametrize("family", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("engine", PARTITIONED)
    def test_matches_sync_on_dblp_topologies(
        self, engine, shards, family, on_engine, tmp_path
    ):
        spec = ScenarioSpec.from_topology(
            TOPOLOGIES[family](), records_per_node=5, seed=7
        )
        expected = sync_result(spec)
        assert expected.engine == "sync"
        # The engine's spec goes through its JSON form first.
        path = tmp_path / "spec.json"
        built = on_engine(spec, engine, shards=shards)
        built.dump_json(path)
        loaded = ScenarioSpec.load_json(path)
        settings = ("transport", "shards", "pool", "hosts")
        assert [getattr(loaded, name) for name in settings] == [
            getattr(built, name) for name in settings
        ]
        with Session.from_spec(loaded) as session:
            session.run("discovery")
            result = session.update()
            assert result.engine == engine
            assert result.ground_databases() == expected.ground_databases()
            plan = session.system.transport.plan
            assert plan.shard_count == min(shards, len(session.system.nodes))
            # The static witness of cross-shard traffic: rules span the cut.
            assert bool(plan.cut_edges()) == (shards > 1)
            # The merge folds the workers' closed flags and final relations
            # back into the coordinator, so the fix-point checks work on it.
            assert all_nodes_closed(session.system)
            assert satisfies_all_rules(session.system)

    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("engine", PARTITIONED)
    def test_matches_sync_on_the_paper_example(self, engine, shards, on_engine):
        # Cyclic, with labelled nulls invented in one worker and compared in
        # another, and chased twice over the same workers or hosts, which
        # must not mint spurious new witnesses.
        expected = sync_result(paper_spec())
        spec = on_engine(paper_spec(), engine, shards=shards)
        with Session.from_spec(spec) as session:
            session.run("discovery")
            session.update()
            repeat = session.update()
            assert repeat.ground_databases() == expected.ground_databases()

    @pytest.mark.parametrize("engine", PARTITIONED)
    def test_discovery_parity(self, engine, on_engine):
        # Topology discovery also runs across the cut; the Paths relations
        # the workers materialise must match the synchronous run.
        paths = []
        for spec in (paper_spec(), on_engine(paper_spec(), engine, shards=3)):
            with Session.from_spec(spec) as session:
                session.run("discovery")
                paths.append(
                    {
                        node_id: node.state.maximal_paths()
                        for node_id, node in session.system.nodes.items()
                    }
                )
        assert paths[0] == paths[1]

    @pytest.mark.parametrize("engine", PARTITIONED)
    def test_completion_times_stay_monotone_across_runs(self, engine, on_engine):
        # Worker virtual clocks persist like the simulator's, and restart
        # from the coordinator's simulated time on every (re)ship, so
        # consecutive runs report non-decreasing simulated completion times.
        with Session.from_spec(on_engine(tree_spec(), engine)) as session:
            first = session.run("update")
            second = session.run("update")
            assert second.completion_time >= first.completion_time


class TestWarmEngines:
    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("engine", WARM)
    def test_warm_runs_stay_in_parity_across_link_changes(
        self, engine, shards, on_engine
    ):
        """addLink / deleteLink / inserts between runs on one warm pool.

        The sequence — update, insert new facts, update, addLink, update,
        deleteLink, update — is mirrored step by step on a sync session, and
        every step's ground state must match.  The pool keeps its partition
        for life, so the same pool serves the whole sequence.
        """
        spec = tree_spec(seed=1)
        sync_session = Session.from_spec(spec)
        with Session.from_spec(on_engine(spec, engine, shards=shards)) as warm:
            assert warm.engine.name == engine

            def step(mutate=None):
                for session in (sync_session, warm):
                    if mutate is not None:
                        mutate(session.system)
                    session.update()
                assert ground_part(warm.databases()) == ground_part(
                    sync_session.databases()
                )

            sync_session.run("discovery")
            warm.run("discovery")
            pool = warm.engine.pool
            step()

            leaf = sorted(spec.schemas)[-1]
            relation = sorted(spec.data[leaf])[0]
            rows = _filler_rows(sync_session.system, leaf, relation)
            step(lambda system: system.load_data({leaf: {relation: rows}}))

            rule = _cross_rule(sync_session.system)
            step(lambda system: system.add_rule(rule))

            step(lambda system: system.remove_rule(rule.rule_id))
            assert warm.engine.pool is pool

    @pytest.mark.parametrize("engine", WARM)
    def test_workers_stay_warm_across_runs(self, engine, on_engine):
        """Repeat runs reuse the same pool, connections and worker processes
        (that is the point)."""
        with Session.from_spec(on_engine(tree_spec(), engine)) as session:
            session.run("update")
            pool = session.engine.pool
            assert pool is not None and pool.alive
            pids = getattr(pool, "worker_pids", None)
            session.run("update")
            session.run("update")
            assert session.engine.pool is pool
            assert pool.alive
            assert getattr(pool, "worker_pids", None) == pids

    @pytest.mark.parametrize("engine", WARM)
    def test_a_peer_joining_a_warm_session_matches_sync(self, engine, on_engine):
        """A peer added after a run is the one change the plan does not
        cover: the engine re-plans, respawns the pool, and stays in parity."""
        item = [RelationSchema("item", ["x", "y"])]
        spec = ScenarioSpec.of(
            {node: item for node in "abcd"},
            [
                "ab: b: item(X, Y) -> a: item(X, Y)",
                "bc: c: item(X, Y) -> b: item(X, Y)",
                "cd: d: item(X, Y) -> c: item(X, Y)",
            ],
            {"d": {"item": [("d1", "d2")]}},
        )
        sync_session = Session.from_spec(spec)
        with Session.from_spec(on_engine(spec, engine)) as warm:
            for session in (sync_session, warm):
                session.update()
                session.system.add_node("e", item)
                session.system.load_data({"e": {"item": [("e1", "e2")]}})
                session.system.add_rule(
                    rule_from_text("de", "e: item(X, Y) -> d: item(X, Y)")
                )
                session.update()
            assert "e" in warm.system.transport.plan.shard_of
            a_items = warm.system.node("a").database.relation("item").rows()
            assert ("e1", "e2") in a_items
            assert ground_part(warm.databases()) == ground_part(
                sync_session.databases()
            )


@pytest.mark.parametrize("engine", ONE_SHOT)
def test_a_one_shot_engine_plans_once_per_peer_set(engine, on_engine):
    # Without a pool the workers are spawned afresh every run, yet the
    # partition is still fixed at the first run: a rule edit keeps the
    # plan, and only a peer the plan does not cover re-plans.
    session = Session.from_spec(on_engine(tree_spec(), engine))
    with session:
        transport = session.system.transport
        assert transport.plan is None
        session.run("update")
        plan = transport.plan
        first = min(rule.rule_id for rule in session.system.registry)
        rule = session.system.remove_rule(first)
        session.run("update")
        session.system.add_rule(rule)
        session.run("update")
        assert transport.plan is plan
        schema = session.system.node(rule.target).database.schema
        session.system.add_node("joiner", schema)
        session.run("update")
        assert transport.plan is not plan
        assert set(transport.plan.shard_of) == set(session.system.nodes)


def test_cross_shard_traffic_follows_the_shard_plan_cut(on_engine):
    # The engine partitions with the ShardPlanner, and each worker
    # delivers exactly the messages addressed to the peers the plan gave
    # it: the per-shard sums of the peers' counters add up to the total.
    spec = ScenarioSpec.from_topology(tree_topology(3, 2), records_per_node=3, seed=0)
    session = Session.from_spec(on_engine(spec, "multiproc", shards=4))
    result = session.run("update")

    plan = session.system.transport.plan
    assert plan.shard_of == ShardPlanner(4).plan_system(session.system).shard_of
    assert plan.cut_edges()
    by_shard = [
        sum(result.stats.nodes[node].messages_received for node in plan.members(shard))
        for shard in range(plan.shard_count)
    ]
    assert all(by_shard)
    assert sum(by_shard) == result.stats.total_messages


def test_auto_spawned_hosts_cover_the_no_cluster_path():
    # No hosts given: the engine spawns localhost hosts on first run and
    # the session's close() tears them down — the configuration CI's
    # socket-smoke job and the CLI sweep rely on.
    spec = ScenarioSpec.from_topology(tree_topology(1, 2), records_per_node=2, seed=0)
    expected = sync_result(spec)
    with Session.from_spec(spec.with_(**ENGINES["socket"])) as session:
        session.run("discovery")
        result = session.update()
        assert result.ground_databases() == expected.ground_databases()
        cluster = session.engine.cluster
        assert cluster is not None and cluster.alive
    assert cluster.host_count == 0  # closed with the session
