"""A run's ``deltas`` is the :class:`Change` it made, on every engine.

``Session.run`` marks every relation before the engine starts and reads the
marks back afterwards (:meth:`Change.read`); the reference strategies diff
their own snapshots (:meth:`Change.between`).  Both are checked here against
a set-difference oracle of the world before and after the run, over the run
kinds a warm network sees: a cold update, a one-row insert, a run with
nothing to do and a run after a delete (on ``pooled``, the delta path).
"""

import pytest

from repro.api.session import Session
from repro.api.spec import ScenarioSpec
from repro.coordination.changeset import Change
from repro.core.system import P2PSystem
from repro.experiments.serving import feeding_site
from repro.workloads.topologies import tree_topology

ENGINES = {
    "sync": {},
    "pooled": {"transport": "pooled", "shards": 2},
    "multiproc": {"transport": "multiproc", "shards": 2},
}


def tree_spec(depth: int = 3, records: int = 3) -> ScenarioSpec:
    return ScenarioSpec.from_topology(
        tree_topology(depth, 2), records_per_node=records, seed=0
    )


def added(before, after):
    """node → relation → rows in ``after`` and not in ``before``."""
    oracle = {}
    for node_id, relations in after.items():
        for name, rows in relations.items():
            fresh = rows - before.get(node_id, {}).get(name, frozenset())
            if fresh:
                oracle.setdefault(node_id, {})[name] = fresh
    return oracle


def assert_matches(result, before, after):
    deltas = result.deltas
    assert isinstance(deltas, Change)
    inserts = {
        node_id: {name: frozenset(rows) for name, rows in relations.items()}
        for node_id, relations in deltas.inserts.items()
    }
    oracle = added(before, after)
    assert inserts == oracle
    assert not deltas.removes and not deltas.replaces
    assert deltas.insert_only
    expected = sum(len(rows) for by in oracle.values() for rows in by.values())
    assert result.tuples_added == expected


def checked_run(session):
    before = session.databases()
    result = session.run("update")
    after = session.databases()
    assert_matches(result, before, after)
    assert result.databases == after
    return result


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_run_deltas_match_the_set_difference(engine):
    spec = tree_spec().with_(**ENGINES[engine])
    node, relation_name, arity = feeding_site(spec)
    with Session.from_spec(spec) as session:
        system = session.system
        site = system.node(node).database.relation(relation_name)

        cold = checked_run(session)
        assert cold.tuples_added > 0

        site.insert(tuple(f"fresh-{column}" for column in range(arity)))
        inserted = checked_run(session)
        assert 0 < inserted.tuples_added < cold.tuples_added

        assert checked_run(session).tuples_added == 0

        # A derived row deleted at the importer is derived again, and the
        # re-run reports it as added.
        feeding = min(
            (rule for rule in system.registry if rule.body[0][0] == node),
            key=lambda rule: rule.rule_id,
        )
        importer, head = feeding.target, feeding.head.relation
        victim = cold.deltas.inserts[importer][head][0]
        system.node(importer).database.delete(head, victim)
        rederived = checked_run(session)
        assert victim in rederived.deltas.inserts[importer][head]

        site.delete(next(iter(site)))
        assert checked_run(session).tuples_added == 0


@pytest.mark.parametrize(
    "strategy, options",
    [
        ("distributed", {}),
        ("centralized", {}),
        ("acyclic", {}),
        # n01's closure is half the tree; the rest keeps its rows unread.
        ("querytime", {"node": "n01"}),
    ],
)
def test_strategy_deltas_match_the_set_difference(strategy, options):
    session = Session.from_spec(tree_spec())
    before = session.databases()
    result = session.update(strategy, **options)
    assert_matches(result, before, result.databases)
    assert result.tuples_added > 0
    if strategy == "querytime":
        assert "n01" in result.deltas.inserts
        assert "n00" not in result.deltas.inserts


def test_a_warm_run_snapshots_the_world_once(monkeypatch):
    spec = tree_spec(depth=5, records=10).with_(**ENGINES["pooled"])
    node, relation_name, arity = feeding_site(spec)
    with Session.from_spec(spec) as session:
        session.run("update")
        site = session.system.node(node).database.relation(relation_name)
        site.insert(tuple(f"once-{column}" for column in range(arity)))
        calls = []
        databases = P2PSystem.databases

        def counted(system):
            calls.append(system)
            return databases(system)

        monkeypatch.setattr(P2PSystem, "databases", counted)
        result = session.run("update")
    assert len(session.system.nodes) == 63
    assert calls == [session.system]  # the one for result.databases
    assert result.tuples_added > 0


@pytest.mark.parametrize("option", ["capture_deltas", "cache_strategies"])
def test_removed_session_options_are_refused(option):
    with pytest.raises(TypeError, match=option):
        Session.from_spec(tree_spec(depth=1), **{option: False})
