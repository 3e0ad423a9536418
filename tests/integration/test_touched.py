"""A relation reports its own writes: nothing written between runs is missed.

The warm pools' syncs, the workers' collects and a run's deltas read only
the relations the system's touched set names (``docs/incremental.md``).  The
report sits in ``Relation``'s mutators and in ``LocalDatabase``, so a write
made behind the session's back — a direct ``insert``, ``delete`` or
``clear``, a relation created by a :class:`Change` — still ships on the next
sync, and none of it shows in the next run's ``deltas``, which are what the
*run* wrote.  The same script runs on ``sync`` (no boundary to cross) and on
the warm ``pooled`` and ``socket-pooled`` engines.
"""

import pytest

from repro.api import ScenarioSpec, Session
from repro.coordination.changeset import Change
from repro.coordination.rule import rule_from_text
from repro.database.schema import RelationSchema
from repro.sharding.planner import ShardPlanner, round_robin_plan
from repro.sharding.pool import ShardPool
from repro.sharding.sockets import LocalHostCluster
from repro.workloads.topologies import tree_topology

ENGINES = ["sync", "pooled", "socket-pooled"]


class PinnedPlanner(ShardPlanner):
    """Never moves a peer: rule changes ride to the warm workers."""

    def plan_system(self, system):
        return round_robin_plan(system.nodes, self.shard_count)


@pytest.fixture(scope="module")
def cluster():
    with LocalHostCluster(2) as cluster:
        yield cluster


@pytest.fixture
def shipped(monkeypatch):
    """Every change a warm pool's ``sync`` ships, in order."""
    changes, sync = [], ShardPool.sync

    def recording_sync(pool, system):
        changes.append(sync(pool, system))
        return changes[-1]

    monkeypatch.setattr(ShardPool, "sync", recording_sync)
    return changes


def engine_settings(engine, cluster):
    """The spec settings that select ``engine``."""
    if engine == "sync":
        return {}
    if engine == "pooled":
        return {"transport": "pooled", "shards": 2}
    return {
        "transport": "socket",
        "shards": 2,
        "hosts": tuple(cluster.addresses),
        "pool": True,
    }


def open_session(engine, cluster):
    spec = ScenarioSpec.of(
        {node: [RelationSchema("item", ["x", "y"])] for node in ("a", "b", "c")},
        ["r1: b: item(X, Y) -> a: item(X, Y)"],
        {"b": {"item": [("1", "2")]}},
        **engine_settings(engine, cluster),
    )
    session = Session.from_spec(spec)
    if engine != "sync":
        session.engine.planner = PinnedPlanner(2)
    session.run("update")  # the priming run
    return session


def written(deltas):
    """``node -> relation -> rows`` of everything a run's deltas name."""
    names = {}
    for field in (deltas.inserts, deltas.removes, deltas.replaces):
        for node_id, relations in field.items():
            for name, rows in relations.items():
                names.setdefault(node_id, {}).setdefault(name, set()).update(rows)
    return names


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("write", ["insert", "delete", "clear"])
def test_a_direct_write_ships_and_is_not_the_runs_delta(
    engine, write, cluster, shipped
):
    with open_session(engine, cluster) as session:
        item = session.system.node("b").database.relation("item")
        if write == "insert":
            item.insert(("3", "4"))
        elif write == "delete":
            item.delete(("1", "2"))
        else:
            item.clear()
        result = session.run("update")
        assert "b" not in written(result.deltas)
        if write == "insert":
            assert written(result.deltas) == {"a": {"item": {("3", "4")}}}
        else:
            assert written(result.deltas) == {}
        # Deletes retract nothing derived: a keeps the row it imported.
        expected_b = {"insert": {("1", "2"), ("3", "4")}}.get(write, set())
        assert session.databases()["b"]["item"] == expected_b
        assert ("1", "2") in session.databases()["a"]["item"]
        if engine == "sync":
            assert not shipped
            return
        [change] = shipped
        assert {
            "insert": change.inserts,
            "delete": change.removes,
            "clear": change.replaces,
        }[write] == {
            "b": {
                "item": {
                    "insert": (("3", "4"),),
                    "delete": (("1", "2"),),
                    "clear": (),
                }[write]
            }
        }


@pytest.mark.parametrize("engine", ENGINES)
def test_a_relation_created_by_a_change_brings_its_schema(engine, cluster, shipped):
    with open_session(engine, cluster) as session:
        extra = RelationSchema("extra", ["k"])
        Change(
            relations={"c": (extra,)},
            inserts={"c": {"extra": (("v",),)}},
            add_rules=(rule_from_text("r2", "c: extra(K) -> b: item(K, K)"),),
        ).apply(session.system)
        result = session.run("update")
        # The workers created the relation, loaded its row and ran the rule.
        assert ("v", "v") in session.databases()["b"]["item"]
        assert ("v", "v") in session.databases()["a"]["item"]
        assert "c" not in written(result.deltas)
        if engine != "sync":
            [change] = shipped
            assert change.relations == {"c": (extra,)}
            assert change.replaces == {"c": {"extra": (("v",),)}}
            assert [rule.rule_id for rule in change.add_rules] == ["r2"]


@pytest.mark.parametrize("engine", ENGINES)
def test_a_relation_written_synced_and_written_again_ships_each_write_once(
    engine, cluster, shipped
):
    with open_session(engine, cluster) as session:
        item = session.system.node("b").database.relation("item")
        item.insert(("3", "4"))
        session.run("discovery")  # a sync, and no update
        item.insert(("5", "6"))
        result = session.run("update")
        assert written(result.deltas) == {"a": {"item": {("3", "4"), ("5", "6")}}}
        if engine != "sync":
            assert [change.inserts for change in shipped] == [
                {"b": {"item": (("3", "4"),)}},
                {"b": {"item": (("5", "6"),)}},
            ]


@pytest.mark.parametrize("engine", ENGINES)
def test_added_and_removed_rules_reach_the_workers(engine, cluster, shipped):
    with open_session(engine, cluster) as session:
        system = session.system
        source = system.node("c").database.relation("item")
        system.add_rule(rule_from_text("r2", "c: item(X, Y) -> a: item(Y, X)"))
        source.insert(("7", "8"))
        session.run("update")
        assert ("8", "7") in session.databases()["a"]["item"]
        system.remove_rule("r2")
        source.insert(("9", "10"))
        session.run("update")
        assert ("10", "9") not in session.databases()["a"]["item"]
        if engine != "sync":
            assert [rule.rule_id for rule in shipped[0].add_rules] == ["r2"]
            assert shipped[1].remove_rules == ("r2",)
            assert not (shipped[0].remove_rules or shipped[1].add_rules)


def protocol_states(session):
    return {
        node_id: (
            node.is_update_closed,
            frozenset(node.state.edges),
            frozenset(node.state.paths),
        )
        for node_id, node in session.system.nodes.items()
    }


@pytest.mark.parametrize("engine", ["pooled", "socket-pooled"])
def test_the_protocol_state_of_every_peer_that_ran_comes_home(engine, cluster):
    # A collect compares the protocol state of the peers that ran only: the
    # origins a start kicked off (a leaf closes without a message) *and*
    # every peer a message reached.
    spec = ScenarioSpec.from_topology(tree_topology(3, 2), records_per_node=2, seed=0)
    for pick in (max, min):  # a leaf, then the root
        states = []
        for built in (spec, spec.with_(**engine_settings(engine, cluster))):
            with Session.from_spec(built) as session:
                session.run("discovery")
                session.run("update", origins=[pick(session.system.nodes)])
                states.append(protocol_states(session))
        sync, pooled = states
        assert sync[pick(sync)][0]  # the origin closed
        assert pooled == sync
