"""A relation reports its own writes: nothing written between runs is missed.

What a session hands its engine at a run's start, the workers' reports and
a run's deltas read only the relations the system's touched set names
(``docs/incremental.md``).  The report sits in ``Relation``'s mutators and
in ``LocalDatabase``, so a write made behind the session's back — a direct
``insert``, ``delete`` or ``clear``, a relation created by a
:class:`Change` — is in the change the next run is handed, and none of it
shows in that run's ``deltas``, which are what the *run* wrote.  The same
script runs on ``sync`` and on the ``pooled`` and ``socket`` engines, and
each engine is handed the same change.
"""

import pytest

from repro.api import ScenarioSpec, Session
from repro.api.engine import SyncEngine
from repro.coordination.changeset import Change
from repro.coordination.rule import rule_from_text
from repro.database.schema import RelationSchema
from repro.sharding.process import ProcessEngine
from repro.workloads.topologies import tree_topology
from engines import ONE_PER_ENGINE, PARTITIONED


@pytest.fixture
def shipped(monkeypatch):
    """Every change a session hands its engine, in order (a first run is
    handed None: nothing to compare with)."""
    changes = []
    for engine in (SyncEngine, ProcessEngine):

        def recording_run(self, system, phase, origins, change, *, run=engine.run):
            if change is not None:
                changes.append(change)
            return run(self, system, phase, origins, change)

        monkeypatch.setattr(engine, "run", recording_run)
    return changes


def open_session(spec):
    session = Session.from_spec(spec)
    session.run("update")  # the priming run
    return session


@pytest.fixture
def item_spec(engine, on_engine):
    """Three peers, ``b`` feeding ``a``, on ``engine``."""
    spec = ScenarioSpec.of(
        {node: [RelationSchema("item", ["x", "y"])] for node in ("a", "b", "c")},
        ["r1: b: item(X, Y) -> a: item(X, Y)"],
        {"b": {"item": [("1", "2")]}},
    )
    return on_engine(spec, engine)


def written(deltas):
    """``node -> relation -> rows`` of everything a run's deltas name."""
    names = {}
    for field in (deltas.inserts, deltas.removes, deltas.replaces):
        for node_id, relations in field.items():
            for name, rows in relations.items():
                names.setdefault(node_id, {}).setdefault(name, set()).update(rows)
    return names


@pytest.mark.parametrize("engine", ONE_PER_ENGINE)
@pytest.mark.parametrize("write", ["insert", "delete", "clear"])
def test_a_direct_write_ships_and_is_not_the_runs_delta(write, item_spec, shipped):
    with open_session(item_spec) as session:
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


@pytest.mark.parametrize("engine", ONE_PER_ENGINE)
def test_a_relation_created_by_a_change_brings_its_schema(item_spec, shipped):
    with open_session(item_spec) as session:
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
        [change] = shipped
        assert change.relations == {"c": (extra,)}
        assert change.replaces == {"c": {"extra": (("v",),)}}
        assert [rule.rule_id for rule in change.add_rules] == ["r2"]


@pytest.mark.parametrize("engine", ONE_PER_ENGINE)
def test_a_relation_written_synced_and_written_again_ships_each_write_once(
    item_spec, shipped
):
    with open_session(item_spec) as session:
        item = session.system.node("b").database.relation("item")
        item.insert(("3", "4"))
        session.run("discovery")  # a sync, and no update
        item.insert(("5", "6"))
        result = session.run("update")
        assert written(result.deltas) == {"a": {"item": {("3", "4"), ("5", "6")}}}
        assert [change.inserts for change in shipped] == [
            {"b": {"item": (("3", "4"),)}},
            {"b": {"item": (("5", "6"),)}},
        ]


@pytest.mark.parametrize("engine", ONE_PER_ENGINE)
def test_added_and_removed_rules_reach_the_workers(item_spec, shipped):
    with open_session(item_spec) as session:
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


@pytest.mark.parametrize("engine", PARTITIONED)
def test_the_protocol_state_of_every_peer_that_ran_comes_home(engine, on_engine):
    # A collect compares the protocol state of the peers that ran only: the
    # origins a start kicked off (a leaf closes without a message) *and*
    # every peer a message reached.
    spec = ScenarioSpec.from_topology(tree_topology(3, 2), records_per_node=2, seed=0)
    for pick in (max, min):  # a leaf, then the root
        states = []
        for built in (spec, on_engine(spec, engine)):
            with Session.from_spec(built) as session:
                session.run("discovery")
                session.run("update", origins=[pick(session.system.nodes)])
                states.append(protocol_states(session))
        sync, pooled = states
        assert sync[pick(sync)][0]  # the origin closed
        assert pooled == sync


@pytest.mark.parametrize("engine", PARTITIONED)
def test_restricted_updates_close_the_same_peers_as_sync(engine, on_engine):
    # A restricted update runs naive everywhere and leaves nothing to
    # extend, so the root's update after a leaf's re-pulls the whole tree
    # on every engine: 15 peers closed on both (on pooled the root's run
    # used to take the delta path, seeded nothing and closed 1).
    spec = ScenarioSpec.from_topology(tree_topology(3, 2), records_per_node=2, seed=0)
    states = []
    for built in (spec, on_engine(spec, engine)):
        with Session.from_spec(built) as session:
            session.run("discovery")
            session.run("update", origins=[max(session.system.nodes)])
            session.run("update", origins=[min(session.system.nodes)])
            states.append((protocol_states(session), session.databases()))
    (sync, sync_databases), (pooled, pooled_databases) = states
    assert sum(closed for closed, _edges, _paths in sync.values()) == 15
    assert pooled == sync and pooled_databases == sync_databases
