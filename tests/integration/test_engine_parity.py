"""Engine checks beyond the fix-point: what holds for one kind of engine only.

That every engine of the shared table (``tests/engines.py``) reaches the
fix-point, across drawn networks, schedules, shard counts and link changes,
is the oracle machine's to check (``tests/property/test_property_oracle.py``).
Here the rows limited to one kind of engine pin warmth itself, a rule edit
that keeps the plan and the workers, and a peer joining a warm session (the
partitioned engines), the plan cut, and the hosts a ``socket``
engine spawns when given none; and, on every row, that a second discovery
after a rule edit finds what a fresh system finds.
"""

import pytest

from repro.api import ScenarioSpec, Session
from repro.coordination.rule import rule_from_text
from repro.core.fixpoint import ground_part
from repro.database.schema import RelationSchema
from repro.sharding import ShardPlanner
from repro.workloads.topologies import tree_topology
from engines import ENGINES, PARTITIONED


def tree_spec() -> ScenarioSpec:
    return ScenarioSpec.from_topology(tree_topology(2, 2), records_per_node=3, seed=0)


def sync_result(spec: ScenarioSpec):
    with Session.from_spec(spec) as session:
        session.run("discovery")
        return session.update()


def copy(source: str, target: str) -> str:
    return f"{target}{source}: {source}: t(X, Y, Z) -> {target}: t(X, Y, Z)"


def discovered_paths(spec: ScenarioSpec, *edits) -> dict:
    """Every peer's maximal paths after a discovery, and again after each
    edit of the system and a discovery."""
    with Session.from_spec(spec) as session:
        session.run("discovery")
        for edit in edits:
            edit(session.system)
            session.run("discovery")
        nodes = session.system.nodes
        return {name: node.state.maximal_paths() for name, node in nodes.items()}


class TestRediscovery:
    """Each discovery starts from no discovery state, at the peers and at a
    process engine's coordinator alike."""

    T = [RelationSchema("t", ["x", "y", "z"])]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_removed_rule_leaves_the_paths(self, engine, on_engine):
        spec = ScenarioSpec.of(
            {peer: self.T for peer in "abc"},
            [copy(source, target) for source, target in ("ba", "cb")],
            super_peer="a",
        )
        spec = on_engine(spec, engine)
        assert discovered_paths(spec)["a"] == [("a", "b", "c")]
        paths = discovered_paths(spec, lambda system: system.remove_rule("bc"))
        assert paths["a"] == [("a", "b")]
        assert paths == discovered_paths(spec.with_(rules=spec.rules[:1]))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_an_added_rule_joins_the_paths(self, engine, on_engine):
        # d imports nothing at the first discovery, and closes on its own.
        spec = ScenarioSpec.of(
            {peer: self.T for peer in "abcdef"},
            [copy(source, target) for source, target in ("ca", "fa", "ec", "af", "df")],
            super_peer="a",
        )
        spec = on_engine(spec, engine)
        added = rule_from_text("da", "a: t(X, Y, Z) -> d: t(X, Y, Z)")
        paths = discovered_paths(spec, lambda system: system.add_rule(added))
        found = [("d", "a", "c", "e"), ("d", "a", "f", "a"), ("d", "a", "f", "d")]
        assert paths["d"] == found
        assert paths == discovered_paths(spec.with_(rules=(*spec.rules, added)))


class TestWarmEngines:
    @pytest.mark.parametrize("engine", PARTITIONED)
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

    @pytest.mark.parametrize("engine", PARTITIONED)
    def test_a_rule_edit_keeps_the_plan_and_the_workers(self, engine, on_engine):
        """A rule removed and added back reaches the workers as a delta: the
        plan, the pool and its processes stay, and the fix-point is sync's."""
        with Session.from_spec(tree_spec()) as sync_session:
            sync_session.run("update")
        with Session.from_spec(on_engine(tree_spec(), engine)) as session:
            session.run("update")
            plan, pool = session.system.transport.plan, session.engine.pool
            pids = getattr(pool, "worker_pids", None)
            first = min(rule.rule_id for rule in session.system.registry)
            rule = session.system.remove_rule(first)
            session.run("update")
            session.system.add_rule(rule)
            session.run("update")
            assert session.system.transport.plan is plan
            assert session.engine.pool is pool and pool.alive
            assert getattr(pool, "worker_pids", None) == pids
            assert ground_part(session.databases()) == ground_part(
                sync_session.databases()
            )

    @pytest.mark.parametrize("engine", PARTITIONED)
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


@pytest.mark.parametrize("engine", PARTITIONED)
def test_cross_shard_traffic_follows_the_shard_plan_cut(engine, on_engine):
    # The engine partitions with the ShardPlanner, and each worker
    # delivers exactly the messages addressed to the peers the plan gave
    # it: the per-shard sums of the peers' counters add up to the total.
    spec = ScenarioSpec.from_topology(tree_topology(3, 2), records_per_node=3, seed=0)
    with Session.from_spec(on_engine(spec, engine, shards=4)) as session:
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
