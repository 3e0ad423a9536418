"""Unit coverage of the persistent worker pool: deltas, wiring, lifecycle.

The pure pieces — the change a session hands its engine, which a warm pool
ships (checked against the set-difference oracle of ``tests/sync_oracle.py``
through an engine that runs nothing), and the fingerprint — are tested
without any processes; the lifecycle tests (spawn / crash / recover / close)
use the smallest systems that exercise a real pool.
"""

import dataclasses
import json
import os

import pytest

from repro.api import ScenarioSpec, Session
from repro.core.fixpoint import ground_part
from repro.coordination.rule import rule_from_text
from repro.database.schema import RelationSchema
from repro.errors import NetworkError, ReproError
from repro.sharding.planner import ShardPlan
from repro.workloads.topologies import tree_topology
from test_pool_bringup import FORK_SERVER_VISIBLE, parent_of
from sync_oracle import (
    Recorder,
    assert_ships_what_the_oracle_ships,
    set_difference_delta,
    snapshot_of,
)

RULE = "r1: b: item(X, Y) -> a: item(X, Y)"


def small_system(transport="sync", **kwargs):
    return ScenarioSpec.of(
        {
            "a": [RelationSchema("item", ["x", "y"])],
            "b": [RelationSchema("item", ["x", "y"])],
            "c": [RelationSchema("item", ["x", "y"])],
        },
        [rule_from_text("r1", "b: item(X, Y) -> a: item(X, Y)")],
        {"b": {"item": [("1", "2")]}},
        transport=transport,
        **kwargs,
    ).build_system()


def _parents_of(pids):
    """The live workers' parent pids; empty where they cannot be read."""
    return {parent_of(pid) for pid in pids} if FORK_SERVER_VISIBLE else set()


def deltas_after(system, mutate, rewritten=()):
    """Mutate ``system`` between two runs; return the change the session
    hands its engine at the second, checked against the oracle."""
    recorder = Recorder()
    session = Session(system, engine=recorder)
    session.run("update")  # the first run marks every relation
    rules, facts = snapshot_of(system)
    mutate()
    oracle = set_difference_delta(system, rules, facts)
    session.run("update")
    shipped = recorder.changes[-1]
    assert_ships_what_the_oracle_ships(system, shipped, oracle, facts, rewritten)
    session.run("update")
    assert recorder.changes[-1].empty  # the marks moved up with the change
    return shipped


class TestSyncDelta:
    def test_unchanged_system_yields_empty_delta(self):
        system = small_system()
        assert deltas_after(system, lambda: None).empty

    def test_inserted_rows_ship_as_insert_deltas_only(self):
        system = small_system()
        delta = deltas_after(
            system, lambda: system.load_data({"b": {"item": [("3", "4")]}})
        )
        assert delta.inserts == {"b": {"item": (("3", "4"),)}}
        assert not delta.replaces and not delta.add_rules and not delta.remove_rules

    def test_inserted_rows_ship_in_insertion_order(self):
        system = small_system()
        rows = [(str(i), "x") for i in (7, 3, 9, 1, 5)]
        delta = deltas_after(system, lambda: system.load_data({"b": {"item": rows}}))
        assert delta.inserts["b"]["item"] == tuple(rows)

    def test_removed_rows_ship_as_a_wholesale_replace(self):
        system = small_system()
        relation = system.node("b").database.relation("item")
        delta = deltas_after(system, relation.clear, rewritten=[("b", "item")])
        assert delta.replaces["b"]["item"] == ()
        assert not delta.relations  # the workers have the relation already

    def test_deleted_rows_ship_as_removes_of_exactly_those_rows(self):
        system = small_system()
        system.load_data({"b": {"item": [("3", "4"), ("5", "6")]}})
        relation = system.node("b").database.relation("item")

        def delete_and_insert():
            relation.delete(("3", "4"))
            relation.insert(("7", "8"))

        delta = deltas_after(system, delete_and_insert)
        assert delta.removes == {"b": {"item": (("3", "4"),)}}
        assert delta.inserts == {"b": {"item": (("7", "8"),)}}
        assert not delta.replaces and delta.rows_only

    def test_a_row_deleted_and_put_back_ships_nothing(self):
        # The marks know the row is the one the workers already hold, as the
        # set difference does: no replace, no remove, no insert.
        system = small_system()
        relation = system.node("b").database.relation("item")

        def delete_and_reinsert():
            relation.delete(("1", "2"))
            relation.insert(("1", "2"))

        assert deltas_after(system, delete_and_reinsert).empty

    def test_a_row_inserted_and_deleted_ships_nothing(self):
        system = small_system()
        relation = system.node("b").database.relation("item")

        def insert_and_delete():
            relation.insert(("3", "4"))
            relation.delete(("3", "4"))

        assert deltas_after(system, insert_and_delete).empty

    def test_swapped_relation_object_ships_as_a_replace(self):
        system = small_system()
        database = system.node("b").database

        def swap():
            database._relations["item"] = database.relation("item").copy()

        delta = deltas_after(system, swap, rewritten=[("b", "item")])
        assert delta.replaces["b"]["item"] == (("1", "2"),)

    def test_new_relation_ships_replace_with_its_schema(self):
        system = small_system()

        def add_relation():
            system.node("c").database.add_relation(RelationSchema("extra", ["k"]))
            system.node("c").database.relation("extra").insert(("v",))

        delta = deltas_after(system, add_relation)
        assert delta.replaces["c"]["extra"] == (("v",),)
        assert [schema.name for schema in delta.relations["c"]] == ["extra"]

    def test_added_and_removed_rules_are_detected(self):
        system = small_system()

        def relink():
            system.remove_rule("r1")
            system.add_rule(rule_from_text("r2", "c: item(X, Y) -> a: item(X, Y)"))

        delta = deltas_after(system, relink)
        assert delta.remove_rules == ("r1",)
        assert [rule.rule_id for rule in delta.add_rules] == ["r2"]

    def test_changed_rule_body_reads_as_remove_plus_add(self):
        system = small_system()

        def edit():
            system.remove_rule("r1")
            system.add_rule(rule_from_text("r1", "c: item(X, Y) -> a: item(X, Y)"))

        delta = deltas_after(system, edit)
        assert delta.remove_rules == ("r1",)
        assert [rule.rule_id for rule in delta.add_rules] == ["r1"]

    def test_only_slices_data_by_ownership_and_keeps_rules_global(self):
        system = small_system()

        def mutate():
            system.load_data(
                {"b": {"item": [("5", "6")]}, "c": {"item": [("7", "8")]}}
            )
            system.add_rule(rule_from_text("r3", "c: item(X, Y) -> b: item(X, Y)"))

        delta = deltas_after(system, mutate)
        plan = ShardPlan(shard_count=2, shard_of={"a": 0, "b": 0, "c": 1})
        shard0 = delta.only(plan.members(0))
        shard1 = delta.only(plan.members(1))
        assert set(shard0.inserts) == {"b"}
        assert set(shard1.inserts) == {"c"}
        assert shard0.add_rules == shard1.add_rules == delta.add_rules

    def test_rows_a_run_merged_do_not_ship_back(self):
        def merge(system):
            system.load_data({"a": {"item": [("1", "2")]}})  # as a merge would

        recorder = Recorder(merge)
        session = Session(small_system(), engine=recorder)
        session.run("update")
        assert session.run("update").deltas.empty  # merged by the first
        assert recorder.changes[-1].empty


class TestWiring:
    @pytest.mark.parametrize("transport", ["sync", "pooled", "socket"])
    def test_a_pool_key_in_a_spec_file_is_ignored(self, transport):
        # Every process-backed engine keeps its workers, so the flag selects
        # nothing.
        spec = ScenarioSpec.of(
            {"a": RelationSchema("item", ["x", "y"])},
            transport=transport,
            shards=None if transport == "sync" else 1,
            pool=True,
        )
        assert spec.build_system().transport.kind == transport
        document = json.loads(spec.dump_json())
        assert "pool" not in document
        loaded = ScenarioSpec.load_json(json.dumps({**document, "pool": True}))
        assert loaded.pool is False
        assert loaded.build_system().transport.kind == transport

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
        return Session.from_spec(spec)

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
            parents = _parents_of(pids)
            for shard in range(pool.shard_count):
                pool.kill_worker(shard)
            assert not pool.alive
            with pytest.raises(NetworkError, match=r"gone \(exit code -\d+\)"):
                pool._require_open()
            recovered = session.run("update")
            assert recovered.engine == "pooled"
            assert session.engine.pool is not pool
            assert not set(session.engine.pool.worker_pids) & set(pids)
            assert session.engine.pool.alive
            assert recovered.completion_time >= first.completion_time
            if parents:  # the respawn is forked from the same server
                assert len(parents) == 1 and os.getpid() not in parents
                assert _parents_of(session.engine.pool.worker_pids) == parents

    @staticmethod
    def _insert_everywhere(session, tag, count=1):
        """``count`` fresh rows into every relation of every node, in order.

        Row ``i`` starts with the same key everywhere, so the rules' joins
        derive rows from it."""
        inserted = {}
        for node_id, node in sorted(session.system.nodes.items()):
            for relation in node.database.relations():
                arity = relation.schema.arity
                rows = [
                    tuple(f"{tag}{index}-{column}" for column in range(arity))
                    for index in range(count)
                ]
                relation.insert_many(rows)
                inserted.setdefault(node_id, {})[relation.name] = tuple(rows)
        return inserted

    def test_sync_ships_a_multi_row_insert_in_insertion_order(self):
        # Set-difference sync shipped `tuple(rows - old)`: set-iteration
        # order, which moves with PYTHONHASHSEED — and seeds the delta
        # frontier in that order.  Cursor sync ships what was appended.
        with self._pooled_session() as session:
            session.run("update")
            inserted = self._insert_everywhere(session, "ordered", count=5)
            pool, shipped = session.engine.pool, []
            run_phase = pool.run_phase

            def recording_run_phase(*args, change=None, **kwargs):
                shipped.append(change)
                return run_phase(*args, change=change, **kwargs)

            pool.run_phase = recording_run_phase
            session.run("update")
            [delta] = shipped
            assert delta.inserts == inserted
            assert not delta.replaces

    def test_a_failed_merge_drops_the_pool_and_the_next_run_recovers(self):
        # Workers ship only what they gained since their last collect, so a
        # payload lost between `collected` and the end of the merge would
        # leave the coordinator behind its workers for good.  The engine
        # must drop the pool instead; the cold respawn re-derives the rest.
        spec = self._pooled_session().spec
        with Session.from_spec(spec) as session:
            session.run("update")
            pool = session.engine.pool
            inserted = self._insert_everywhere(session, "lost")
            run_phase = pool.run_phase

            def lose_the_second_payload(*args, **kwargs):
                payloads = run_phase(*args, **kwargs)
                assert any(not payload["change"].empty for payload in payloads)
                change = payloads[1]["change"]
                payloads[1]["change"] = dataclasses.replace(
                    change, inserts={"no-such-node": {}, **change.inserts}
                )
                return payloads

            pool.run_phase = lose_the_second_payload
            with pytest.raises(ReproError, match="no-such-node"):
                session.run("update")
            assert pool.closed
            assert session.engine.pool is None
            session.run("update")  # respawns cold, transparently
            assert session.engine.pool is not pool and session.engine.pool.alive
            with Session.from_spec(spec.with_(transport="sync", shards=None)) as oracle:
                oracle.system.load_data(inserted)
                expected = oracle.run("update").ground_databases()
            assert ground_part(session.databases()) == expected

    def test_run_phase_on_a_closed_pool_raises(self):
        session = self._pooled_session()
        session.run("update")
        pool = session.engine.pool
        session.close()
        with pytest.raises(ReproError, match="closed"):
            pool.run_phase("update", ("n000",))


class TestReplanInvalidation:
    """A warm pool keeps the plan it was spawned with: rule edits ride the
    synced change, and only a peer the plan does not cover re-plans."""

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
        session = Session.from_spec(spec)
        session.run("update")
        return session

    def test_unchanged_rules_never_replan(self):
        with self._warm_session() as session:
            pool = session.engine.pool
            plan, pids = pool.plan, pool.worker_pids
            session.run("update")
            assert session.engine.pool is pool
            assert pool.plan is plan
            assert session.system.transport.plan is plan
            assert pool.worker_pids == pids

    def test_rule_change_keeping_the_partition_ships_a_delta(self):
        with self._warm_session() as session:
            pool = session.engine.pool
            pids = pool.worker_pids
            session.system.add_rule(
                rule_from_text("r9", "c: item(X, Y) -> a: item(X, Y)")
            )
            session.run("update")
            assert session.engine.pool is pool
            assert pool.worker_pids == pids

    def test_rule_removal_keeps_the_partition(self):
        with self._warm_session() as session:
            pool = session.engine.pool
            plan, pids = pool.plan, pool.worker_pids
            session.system.remove_rule("r1")
            session.run("update")
            assert session.engine.pool is pool
            assert pool.plan is plan
            assert pool.worker_pids == pids

    def test_a_peer_outside_the_plan_respawns_the_pool(self):
        with self._warm_session() as session:
            pool = session.engine.pool
            session.system.add_node("e", [RelationSchema("item", ["x", "y"])])
            session.system.load_data({"e": {"item": [("e1", "e2")]}})
            session.system.add_rule(
                rule_from_text("r9", "e: item(X, Y) -> a: item(X, Y)")
            )
            session.run("update")
            new_pool = session.engine.pool
            assert new_pool is not pool
            assert pool.closed
            assert new_pool.plan is session.system.transport.plan
            assert "e" in new_pool.plan.shard_of
            assert ("e1", "e2") in session.system.node("a").database.relation(
                "item"
            ).rows()
