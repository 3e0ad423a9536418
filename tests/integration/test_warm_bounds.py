"""Work bounds for a warm run on the ``warm_pooled`` benchmark network.

Host-independent counterparts of the benchmark's timings, in the manner of
``test_cold_golden``'s evaluation counts: a warm one-row insert moves a
handful of rows across the coordinator↔worker boundary — out on the
``start`` commands, home on the workers' idle reports — however large the
world has grown, and merging them neither clears a coordinator relation nor
drops one of its indexes.  A warm one-row delete takes the same delta path
and ships the removed row, not the relation.  Before the boundary moved to
cursors every run shipped ~150 KB of relations home and re-inserted all
~6 300 rows; the payload grew with every insert.

The round trips are bounded the same way: per shard, one ``start`` out and
its idle reports home — 4 items on two shards, where a separate ``sync``, a
confirming ``ping`` wave and a ``collect`` round trip made it 14.

So is the coordinator's bookkeeping around the rows: a warm one-row insert
marks and reads only the relations written since the last visit, assembles
statistics only for the nodes whose counters moved, and reads no rule text
while the rule set stands still — the same counts on a 15-node and a 63-node
tree.  Each run used to visit every relation four times (504 visits at 63
nodes), build a ``NodeStats`` per node and compare every rule's text twice.
"""

import pickle
from collections import Counter
from multiprocessing.process import BaseProcess

import pytest

from repro.api.session import Session
from repro.api.spec import ScenarioSpec
from repro.coordination.rule import CoordinationRule
from repro.database.relation import Relation
from repro.experiments.serving import feeding_site
from repro.stats.collector import NodeStats
from repro.workloads.topologies import tree_topology

INSERTS = 200


def seeded_rows(session):
    """The rows the session's delta-path runs seeded so far."""
    totals = session.system.stats.incremental_totals()
    return totals["repro_incremental_seed_rows_total"]


class Boundary:
    """Records what crosses a warm pool's boundary, run by run: the change
    each run shipped out, the payloads of each run's reports, and the kinds
    of the items each run put on the channels and took off the results
    queue."""

    def __init__(self, session):
        self.session, pool = session, session.engine.pool
        self.deltas, self.payloads, self.items = [], [], []
        run_phase, next_reply = pool.run_phase, pool._next_reply

        def recording_run_phase(*args, change=None, **kwargs):
            self.items.append(Counter())
            self.deltas.append(change)
            self.seeded_before = seeded_rows(session)
            self.payloads.append(run_phase(*args, change=change, **kwargs))
            return self.payloads[-1]

        def recording_next_reply(*args):
            item = next_reply(*args)
            if item is not None:
                self.items[-1][item[0]] += 1
            return item

        for channel in pool._channels:
            self._record_puts(channel)
        pool.run_phase, pool._next_reply = recording_run_phase, recording_next_reply

    def _record_puts(self, channel):
        put = channel.put

        def recording_put(command):
            if self.items:
                self.items[-1][command[0]] += 1
            put(command)

        channel.put = recording_put

    @property
    def delta_path(self):
        """Whether the last run seeded the delta path (a naive one seeds
        nothing)."""
        return seeded_rows(self.session) > self.seeded_before

    @property
    def shipped_home(self):
        """``(whole, rows)`` of every relation in the last run's reports."""
        return [
            (whole, rows)
            for payload in self.payloads[-1]
            for whole, by_node in (
                (False, payload["change"].inserts),
                (True, payload["change"].replaces),
            )
            for relations in by_node.values()
            for rows in relations.values()
        ]

    @property
    def payload_bytes(self):
        """Pickled bytes of the last run's report payloads, together."""
        return sum(len(pickle.dumps(payload)) for payload in self.payloads[-1])


@pytest.fixture(scope="module")
def warm():
    spec = ScenarioSpec.from_topology(
        tree_topology(5, 2), records_per_node=10, seed=0
    ).with_(transport="pooled", shards=2)
    with Session.from_spec(spec) as session:
        session.run("update")  # the priming run: spawn, cold, converge
        yield session, Boundary(session)


def test_a_warm_insert_moves_rows_not_the_world(warm):
    session, boundary = warm
    system = session.system
    node, relation_name, arity = feeding_site(session.spec)
    site = system.node(node).database.relation(relation_name)
    relations = [
        relation
        for peer in system.nodes.values()
        for relation in peer.database.relations()
    ]
    removals = [relation.removals for relation in relations]
    root = next(system.node(session.spec.super_peer or "n000").database.relations())
    list(root.lookup(0, "probe"))  # a served point query builds this index
    index = root._indexes[0]

    sizes = []
    for number in range(INSERTS):
        site.insert(tuple(f"w{number:04d}-{column}" for column in range(arity)))
        result = session.run("update")
        assert boundary.delta_path
        delta = boundary.deltas[-1]
        assert delta.insert_only
        assert [len(rows) for rows in delta.inserts[node].values()] == [1]
        assert list(delta.inserts) == [node]
        shipped = boundary.shipped_home
        assert not any(whole for whole, _rows in shipped)
        # Only the rows derived from it come home: the workers re-mark what
        # a sync touched, so the inserted row is not echoed back.
        assert result.tuples_added == sum(len(rows) for _, rows in shipped) <= 5
        assert not any(payload["change"].relations for payload in boundary.payloads[-1])
        sizes.append(boundary.payload_bytes)

    # Flat in world size: 200 inserts later a run ships what the first did.
    assert sizes[0] <= 8 * 1024
    assert sizes[-1] == sizes[0]
    # Insert-only merges never clear: marks and indexes on the coordinator's
    # relations survive, so the next served point query rebuilds nothing.
    assert [relation.removals for relation in relations] == removals
    assert root._indexes[0] is index
    assert len(list(root.lookup(0, "w0199-0"))) == 1


def messages_of(session, run):
    """The messages one ``run()`` on ``session`` delivered."""
    before = session.snapshot_stats().total_messages
    run()
    return session.snapshot_stats().total_messages - before


def test_a_warm_delete_moves_the_removed_row_not_the_relation(warm):
    session, boundary = warm
    system = session.system
    node, relation_name, arity = feeding_site(session.spec)
    site = system.node(node).database.relation(relation_name)
    site.insert(tuple(f"probe-{column}" for column in range(arity)))
    insert_messages = messages_of(session, lambda: session.run("update"))
    assert boundary.delta_path and insert_messages > 0

    # The base rows the insert test added: nothing derives them again.
    victims = [row for row in site if row[0].startswith("w0")]
    assert len(victims) == INSERTS
    sizes = []
    for victim in victims:
        site.delete(victim)
        messages = messages_of(session, lambda: session.run("update"))
        assert boundary.delta_path  # no naive re-run
        delta = boundary.deltas[-1]
        assert delta.removes == {node: {relation_name: (victim,)}}
        assert not (delta.inserts or delta.replaces or delta.relations)
        assert not any(
            payload["change"].replaces or payload["change"].removes
            for payload in boundary.payloads[-1]
        )
        assert messages <= insert_messages
        sizes.append(boundary.payload_bytes)
    # Flat in world size: the last delete ships what the first did.
    assert sizes[-1] == sizes[0] <= 8 * 1024
    assert seeded_rows(session) >= INSERTS
    # ... and an insert after them is still a delta.
    site.insert(victims[0])
    session.run("update")
    assert boundary.delta_path
    assert boundary.deltas[-1].inserts == {node: {relation_name: (victims[0],)}}


def test_a_warm_insert_is_one_start_out_and_one_report_home_per_shard(warm):
    session, boundary = warm
    node, relation_name, arity = feeding_site(session.spec)
    site = session.system.node(node).database.relation(relation_name)
    shards = session.engine.pool.shard_count
    for number in range(INSERTS // 4):
        site.insert(tuple(f"q{number:04d}-{column}" for column in range(arity)))
        inserted = session.run("update")
        assert boundary.delta_path
        assert inserted.tuples_added > 0
        assert boundary.items[-1] == {"start": shards, "report": shards}
        unchanged = session.run("update")
        assert unchanged.tuples_added == 0
        assert boundary.items[-1] == {"start": shards, "report": shards}


def test_a_warm_insert_checks_each_worker_for_life_twice(warm, monkeypatch):
    # Once in the engine's respawn decision, once after the barrier: a dead
    # worker fails its ``start`` send or closes its pipe, so the checks
    # before the run (two more per worker) went.
    session, boundary = warm
    node, relation_name, arity = feeding_site(session.spec)
    site = session.system.node(node).database.relation(relation_name)
    shards = session.engine.pool.shard_count
    calls = Counter()
    is_alive = BaseProcess.is_alive

    def counting_is_alive(process):
        calls[process.pid] += 1
        return is_alive(process)

    site.insert(tuple(f"alive-{column}" for column in range(arity)))
    with monkeypatch.context() as patch:
        patch.setattr(BaseProcess, "is_alive", counting_is_alive)
        assert session.run("update").tuples_added > 0
    assert boundary.items[-1] == {"start": shards, "report": shards}
    assert sum(calls.values()) == 2 * shards == 4
    assert set(calls.values()) == {2}


def test_payloads_larger_than_a_pipe_buffer_cross_both_ways():
    # A start and a report that each pickle to over a MiB: the coordinator
    # blocks in a send only while the worker reads, and a worker only while
    # the coordinator reads (the pipes carry no worker-to-worker traffic).
    spec = ScenarioSpec.from_topology(tree_topology(2, 2), records_per_node=2, seed=0)
    node, relation_name, arity = feeding_site(spec)
    load = {
        node: {
            relation_name: [
                tuple(f"bulk-{number:05d}-{column}" for column in range(arity))
                for number in range(20_000)
            ]
        }
    }
    with Session.from_spec(spec.with_(transport="pooled", shards=2)) as session:
        session.run("update")
        boundary = Boundary(session)
        sizes = Counter()
        for channel in session.engine.pool._channels:
            put = channel.put

            def measuring_put(command, put=put):
                sizes[command[0]] = max(sizes[command[0]], len(pickle.dumps(command)))
                put(command)

            channel.put = measuring_put
        session.system.load_data(load)
        assert session.run("update").tuples_added > 0
        sizes["report"] = max(len(pickle.dumps(p)) for p in boundary.payloads[-1])
        pooled = session.system.databases()
    assert sizes["start"] >= 2**20 and sizes["report"] >= 2**20
    with Session.from_spec(spec) as oracle:
        oracle.run("update")
        oracle.system.load_data(load)
        oracle.run("update")
        assert pooled == oracle.system.databases()


@pytest.mark.parametrize("transport", ["sync", "pooled"])
def test_the_message_bound_is_per_run(transport):
    # A long-lived session delivers without end, on the simulator as in a
    # warm pool; only one run's deliveries may count against ``max_messages``.
    spec = ScenarioSpec.from_topology(
        tree_topology(3, 2), records_per_node=3, seed=0
    ).with_(transport=transport, shards=2 if transport == "pooled" else None)
    with Session.from_spec(spec) as probe:
        priming = probe.run("update").stats.total_messages
    bound = priming + 5
    with Session.from_spec(spec.with_(max_messages=bound)) as session:
        session.run("update")
        node, relation_name, arity = feeding_site(spec)
        site = session.system.node(node).database.relation(relation_name)
        pool = getattr(session.engine, "pool", None)
        number = 0
        while session.snapshot_stats().total_messages <= 2 * bound:
            site.insert(tuple(f"b{number:04d}-{column}" for column in range(arity)))
            session.run("update")
            number += 1
        assert getattr(session.engine, "pool", None) is pool
        assert pool is None or pool.alive


def spied_warm_insert(session, monkeypatch, tag):
    """Insert one row at the feeding site and run a warm update under spies.

    Returns what the coordinator did during the run: ``visits`` (calls of
    ``Relation.mark`` and ``Relation.since``), ``assembled`` (``NodeStats``
    built), ``texts`` (``CoordinationRule.text`` reads), plus ``moved``, the
    nodes whose statistics differ from the snapshot before the run, and
    ``touched``, the relations the run's deltas or the insert wrote.
    """
    node, relation_name, arity = feeding_site(session.spec)
    site = session.system.node(node).database.relation(relation_name)
    before = session.snapshot_stats().nodes
    site.insert(tuple(f"{tag}-{column}" for column in range(arity)))
    counts = Counter()

    def counting(name, function):
        def spy(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return spy

    with monkeypatch.context() as patch:
        patch.setattr(Relation, "mark", counting("visits", Relation.mark))
        patch.setattr(Relation, "since", counting("visits", Relation.since))
        patch.setattr(NodeStats, "__init__", counting("assembled", NodeStats.__init__))
        text = CoordinationRule.__dict__["text"].func
        patch.setattr(CoordinationRule, "text", property(counting("texts", text)))
        result = session.run("update")
    assert result.tuples_added > 0
    counts["moved"] = {
        node_id
        for node_id, stats in result.stats.nodes.items()
        if before.get(node_id) != stats
    }
    counts["touched"] = 1 + sum(
        len(relations) for relations in result.deltas.inserts.values()
    )
    return counts


@pytest.fixture(scope="module")
def warm_trees():
    """Warm pooled sessions on the 15- and 63-node trees, past their first
    warm insert."""
    sessions = {}
    try:
        for depth in (3, 5):
            spec = ScenarioSpec.from_topology(
                tree_topology(depth, 2), records_per_node=3, seed=0
            ).with_(transport="pooled", shards=2)
            session = sessions[depth] = Session.from_spec(spec)
            session.run("update")
            node, relation_name, arity = feeding_site(spec)
            session.system.node(node).database.relation(relation_name).insert(
                tuple(f"first-{column}" for column in range(arity))
            )
            session.run("update")
        yield sessions
    finally:
        for session in sessions.values():
            session.close()


def test_a_warm_insert_visits_what_it_touched_not_the_network(warm_trees, monkeypatch):
    small, large = (
        spied_warm_insert(warm_trees[depth], monkeypatch, "gate") for depth in (3, 5)
    )
    # Relations: flat in network size, two visits per relation written
    # (the session's reads at the run's start and for the run's deltas).
    assert small["visits"] == large["visits"] == 2 * large["touched"]
    for counts in (small, large):
        # Statistics: one NodeStats per node whose counters moved, no more.
        assert counts["moved"] and counts["assembled"] == len(counts["moved"])
        # Rules: the registry version says nothing changed.
        assert counts["texts"] == 0
    assert len(large["moved"]) < len(warm_trees[5].system.nodes)
