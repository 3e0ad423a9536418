"""Unit coverage of the persistent worker pool: deltas, wiring, lifecycle.

The pure pieces — :func:`~repro.sharding.pool.compute_sync_delta`, the
fingerprint and the re-plan decision — are tested without any processes; the
lifecycle tests (spawn / crash / recover / close) use the smallest systems
that exercise a real pool.
"""

import pytest

from repro.api import ScenarioSpec, Session
from repro.api.engine import engine_for
from repro.core.system import P2PSystem
from repro.coordination.rule import rule_from_text
from repro.database.schema import RelationSchema
from repro.errors import NetworkError, ReproError
from repro.sharding.planner import ShardPlan, ShardPlanner
from repro.coordination.changeset import rules_fingerprint
from repro.sharding.pool import compute_sync_delta
from repro.workloads.topologies import tree_topology

RULE = "r1: b: item(X, Y) -> a: item(X, Y)"


def small_system(transport="sync", **kwargs):
    return P2PSystem.build(
        {
            "a": [RelationSchema("item", ["x", "y"])],
            "b": [RelationSchema("item", ["x", "y"])],
            "c": [RelationSchema("item", ["x", "y"])],
        },
        [rule_from_text("r1", "b: item(X, Y) -> a: item(X, Y)")],
        {"b": {"item": [("1", "2")]}},
        transport=transport,
        **kwargs,
    )


def mirror_of(system):
    """The (rules, facts) mirror a freshly-spawned pool would hold."""
    return rules_fingerprint(system.registry), {
        node_id: dict(node.database.facts())
        for node_id, node in system.nodes.items()
    }


class TestComputeSyncDelta:
    def test_unchanged_system_yields_empty_delta(self):
        system = small_system()
        rules, facts = mirror_of(system)
        assert compute_sync_delta(system, rules, facts).empty

    def test_inserted_rows_ship_as_insert_deltas_only(self):
        system = small_system()
        rules, facts = mirror_of(system)
        system.load_data({"b": {"item": [("3", "4")]}})
        delta = compute_sync_delta(system, rules, facts)
        assert delta.inserts == {"b": {"item": (("3", "4"),)}}
        assert not delta.replaces and not delta.add_rules and not delta.remove_rules

    def test_removed_rows_ship_as_a_wholesale_replace(self):
        system = small_system()
        rules, facts = mirror_of(system)
        system.node("b").database.relation("item").clear()
        delta = compute_sync_delta(system, rules, facts)
        assert "b" in delta.replaces
        schema, rows = delta.replaces["b"]["item"]
        assert schema.name == "item" and rows == ()

    def test_new_relation_ships_replace_with_its_schema(self):
        system = small_system()
        rules, facts = mirror_of(system)
        system.node("c").database.add_relation(RelationSchema("extra", ["k"]))
        system.node("c").database.relation("extra").insert(("v",))
        delta = compute_sync_delta(system, rules, facts)
        schema, rows = delta.replaces["c"]["extra"]
        assert schema.name == "extra" and rows == (("v",),)

    def test_added_and_removed_rules_are_detected(self):
        system = small_system()
        rules, facts = mirror_of(system)
        system.remove_rule("r1")
        system.add_rule(rule_from_text("r2", "c: item(X, Y) -> a: item(X, Y)"))
        delta = compute_sync_delta(system, rules, facts)
        assert delta.remove_rules == ("r1",)
        assert [rule.rule_id for rule in delta.add_rules] == ["r2"]

    def test_changed_rule_body_reads_as_remove_plus_add(self):
        system = small_system()
        rules, facts = mirror_of(system)
        system.remove_rule("r1")
        system.add_rule(rule_from_text("r1", "c: item(X, Y) -> a: item(X, Y)"))
        delta = compute_sync_delta(system, rules, facts)
        assert delta.remove_rules == ("r1",)
        assert [rule.rule_id for rule in delta.add_rules] == ["r1"]

    def test_for_shard_slices_data_by_ownership_and_keeps_rules_global(self):
        system = small_system()
        rules, facts = mirror_of(system)
        system.load_data({"b": {"item": [("5", "6")]}, "c": {"item": [("7", "8")]}})
        system.add_rule(rule_from_text("r3", "c: item(X, Y) -> b: item(X, Y)"))
        delta = compute_sync_delta(system, rules, facts)
        plan = ShardPlan(shard_count=2, shard_of={"a": 0, "b": 0, "c": 1})
        shard0 = delta.for_shard(plan, 0)
        shard1 = delta.for_shard(plan, 1)
        assert set(shard0["inserts"]) == {"b"}
        assert set(shard1["inserts"]) == {"c"}
        assert shard0["add_rules"] == shard1["add_rules"] == delta.add_rules


class TestWiring:
    def test_build_pooled_transport_by_kind(self):
        system = small_system(transport="pooled", shards=2)
        assert (system.transport.kind, system.transport.pool) == ("multiproc", True)
        assert engine_for(system.transport).name == "pooled"

    def test_multiproc_with_pool_flag_builds_pooled_transport(self):
        system = small_system(transport="multiproc", shards=2, pool=True)
        assert (system.transport.kind, system.transport.pool) == ("multiproc", True)

    def test_multiproc_without_pool_flag_stays_cold(self):
        system = small_system(transport="multiproc", shards=2)
        assert system.transport.pool is False
        engine = engine_for(system.transport)
        assert engine.name == "multiproc"

    def test_spec_pool_flag_round_trips_and_builds_pooled(self):
        spec = ScenarioSpec.of(
            {
                "a": RelationSchema("item", ["x", "y"]),
                "b": RelationSchema("item", ["x", "y"]),
            },
            [RULE],
            transport="multiproc",
            shards=2,
            pool=True,
        )
        loaded = ScenarioSpec.load_json(spec.dump_json())
        assert loaded.pool is True
        assert loaded.build_system().transport.pool is True

    def test_spec_rejects_pool_on_unpartitioned_transports(self):
        spec = ScenarioSpec.of(
            {"a": RelationSchema("item", ["x", "y"])}, pool=True
        )
        with pytest.raises(ReproError, match="pool=True needs the multiproc"):
            spec.build_system()

    def test_network_builder_pooled_shorthand(self):
        from repro.api.spec import NetworkBuilder

        spec = (
            NetworkBuilder("pooled-demo")
            .node("a", RelationSchema("item", ["x", "y"]))
            .node("b", RelationSchema("item", ["x", "y"]))
            .rule(RULE)
            .pooled(shards=2)
            .build()
        )
        assert spec.transport == "pooled"
        assert spec.shards == 2

    def test_session_close_is_a_noop_for_engines_without_pools(self):
        session = Session.from_spec(
            ScenarioSpec.of({"a": RelationSchema("item", ["x", "y"])})
        )
        session.close()  # must not raise


class TestPoolLifecycle:
    def _pooled_session(self, shards=2):
        spec = ScenarioSpec.from_topology(
            tree_topology(1, 2), records_per_node=2, seed=0
        ).with_(transport="pooled", shards=shards)
        return Session.from_spec(spec, capture_deltas=False)

    def test_close_stops_the_workers_and_is_idempotent(self):
        session = self._pooled_session()
        session.run("update")
        pool = session.engine.pool
        assert pool.alive
        session.close()
        session.close()
        assert pool.closed
        assert not pool.alive
        assert session.engine.pool is None

    def test_context_manager_form_closes_on_exit(self):
        with self._pooled_session() as session:
            session.run("update")
            pool = session.engine.pool
        assert pool.closed

    def test_closed_session_respawns_on_the_next_run(self):
        with self._pooled_session() as session:
            first = session.run("update")
            session.close()
            second = session.run("update")  # cold again, but transparent
            assert second.engine == "pooled"
            assert second.completion_time >= first.completion_time

    def test_crash_detected_mid_run_raises_instead_of_hanging(self):
        with self._pooled_session() as session:
            session.run("update")
            pool = session.engine.pool
            victim = pool._workers[0]
            victim.terminate()
            victim.join(timeout=5.0)
            with pytest.raises((NetworkError, ReproError)):
                # Driving the pool directly (as a mid-run crash would be
                # seen) must surface a repro error, never a 120 s stall.
                pool.run_phase("update", sorted(session.system.nodes))
            assert pool.closed

    def test_crash_between_runs_respawns_transparently(self):
        with self._pooled_session() as session:
            first = session.run("update")
            pool = session.engine.pool
            pids = pool.worker_pids
            for victim in pool._workers:
                victim.terminate()
                victim.join(timeout=5.0)
            recovered = session.run("update")
            assert recovered.engine == "pooled"
            assert session.engine.pool is not pool
            assert session.engine.pool.worker_pids != pids
            assert session.engine.pool.alive
            assert recovered.completion_time >= first.completion_time

    def test_run_phase_on_a_closed_pool_raises(self):
        session = self._pooled_session()
        session.run("update")
        pool = session.engine.pool
        session.close()
        with pytest.raises(ReproError, match="closed"):
            pool.run_phase("update", ("n000",))


class TestReplanInvalidation:
    def _warm_session(self):
        spec = ScenarioSpec.of(
            {
                "a": RelationSchema("item", ["x", "y"]),
                "b": RelationSchema("item", ["x", "y"]),
                "c": RelationSchema("item", ["x", "y"]),
                "d": RelationSchema("item", ["x", "y"]),
            },
            [RULE],
            {"b": {"item": [("1", "2")]}},
            transport="pooled",
            shards=2,
        )
        session = Session.from_spec(spec, capture_deltas=False)
        session.run("update")
        return session

    def test_unchanged_rules_never_replan(self):
        with self._warm_session() as session:
            pool = session.engine.pool
            assert pool.plan_if_stale(session.system, ShardPlanner(2)) is None

    def test_rule_change_keeping_the_partition_ships_a_delta(self):
        with self._warm_session() as session:
            pool = session.engine.pool
            pids = pool.worker_pids
            plan = pool.plan
            # A planner pinned to the current assignment: the partition
            # cannot move, so the rule change must ride a warm delta.
            class PinnedPlanner(ShardPlanner):
                def plan_system(self, system):
                    return plan

            session.engine.planner = PinnedPlanner(2)
            session.system.add_rule(
                rule_from_text("r9", "c: item(X, Y) -> a: item(X, Y)")
            )
            session.run("update")
            assert session.engine.pool is pool
            assert pool.worker_pids == pids

    def test_rule_change_moving_the_partition_restarts_the_pool(self):
        with self._warm_session() as session:
            pool = session.engine.pool
            current = dict(pool.plan.shard_of)
            flipped = ShardPlan(
                shard_count=pool.plan.shard_count,
                shard_of={
                    node: (shard + 1) % pool.plan.shard_count
                    for node, shard in current.items()
                },
            )

            class MovingPlanner(ShardPlanner):
                def plan_system(self, system):
                    return flipped

            session.engine.planner = MovingPlanner(2)
            session.system.add_rule(
                rule_from_text("r9", "c: item(X, Y) -> a: item(X, Y)")
            )
            result = session.run("update")
            assert result.engine == "pooled"
            new_pool = session.engine.pool
            assert new_pool is not pool
            assert pool.closed
            assert dict(new_pool.plan.shard_of) == dict(flipped.shard_of)
