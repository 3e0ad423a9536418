"""Stateful test: a warm pooled session never drifts from a cold replay.

The coordinator and its workers exchange cursors' worth of rows — what each
side appended or deleted since the other last saw the relation — and fall
back to whole relations when a mark does not validate.  Whatever the script
does between two runs (inserts anywhere, deletes, rows deleted and put back
or inserted and deleted again, clears, rewritten, swapped and added
relations, ``addLink`` / ``deleteLink``, discovery runs), two things must
hold:

* after every update the coordinator's ground databases equal those of a
  *fresh* ``sync`` session that replays the same script on the same spec —
  an oracle that never crosses the process boundary;
* every :class:`~repro.coordination.changeset.Change` the pool ships is what
  the former set-difference sync (``tests/sync_oracle.py``) computes from a
  full copy of the world.
"""

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.api.session import Session
from repro.api.spec import ScenarioSpec
from repro.coordination.rule import rule_from_text
from repro.core.fixpoint import ground_part
from repro.database.schema import RelationSchema
from repro.sharding.planner import ShardPlanner, round_robin_plan
from repro.sharding.pool import ShardPool
from repro.workloads.topologies import clique_topology, tree_topology
from sync_oracle import (
    assert_ships_what_the_oracle_ships,
    set_difference_delta,
    snapshot_of,
)

#: Links a script may add; n00 and n03 hold ``pub`` in both topologies.
EXTRA_LINKS = {
    "extra/0": "n03: pub(K, TI, AU, YR, VE) -> n00: pub(K, TI, AU, YR, VE)",
    "extra/1": "n00: pub(K, TI, AU, YR, VE) -> n03: pub(K, TI, AU, YR, VE)",
}

picks = st.integers(min_value=0, max_value=63)
values = st.sampled_from(["k1", "k2", "k3", "a", "b"])
row_seeds = st.lists(st.lists(values, min_size=5, max_size=5), min_size=1, max_size=5)


class PinnedPlanner(ShardPlanner):
    """Never moves a peer, so every rule change rides to the *warm* workers.

    A re-plan that moves a peer respawns the pool cold, which forgets what the
    peers had cached of each other's fragments — after a hand-made deletion
    that is allowed to change which stale rows come back (``sync`` and
    ``pooled`` already differ there), and it is not the boundary under test.
    """

    def plan_system(self, system):
        return round_robin_plan(system.nodes, self.shard_count)


def pick_relation(session, node_pick, relation_pick):
    nodes = sorted(session.system.nodes)
    node_id = nodes[node_pick % len(nodes)]
    relations = list(session.system.node(node_id).database.relations())
    return node_id, relations[relation_pick % len(relations)]


def apply(session, step):
    """Play one script step on ``session``; True if it rewrote a relation."""
    kind, *arguments = step
    if kind == "run":
        session.run(*arguments)
    elif kind == "add_link":
        (rule_id,) = arguments
        if rule_id not in {rule.rule_id for rule in session.system.registry}:
            session.system.add_rule(rule_from_text(rule_id, EXTRA_LINKS[rule_id]))
    elif kind == "delete_link":
        (pick,) = arguments
        rule_ids = sorted(rule.rule_id for rule in session.system.registry)
        if len(rule_ids) > 1:
            session.system.remove_rule(rule_ids[pick % len(rule_ids)])
    elif kind == "add_relation":
        node_id, _relation = pick_relation(session, arguments[0], 0)
        database = session.system.node(node_id).database
        if "extra" not in database:
            database.add_relation(RelationSchema("extra", ["k", "v"]))
        database.insert("extra", ("k1", node_id))
    else:
        node_pick, relation_pick, payload = arguments
        node_id, relation = pick_relation(session, node_pick, relation_pick)
        if kind in ("delete", "put_back"):
            rows = sorted(relation, key=repr)
            if rows:
                row = rows[payload % len(rows)]
                relation.delete(row)
                if kind == "put_back":
                    relation.insert(row)
            return False
        rows = [tuple(seed[: relation.schema.arity]) for seed in payload]
        if kind == "swap":
            # A relation object put in behind the database's back reports
            # itself, like a write to the one it replaced.
            database = session.system.node(node_id).database
            database._relations[relation.name] = relation.copy()
            database.insert_many(relation.name, rows)
            return True
        if kind == "transient":
            fresh = [row for row in rows if row not in relation]
            relation.insert_many(fresh)
            for row in fresh:
                relation.delete(row)
            return False
        if kind == "replace":
            relation.clear()
        relation.insert_many(rows)
        return kind == "replace"
    return False


class WarmSyncMachine(RuleBasedStateMachine):
    topology = staticmethod(lambda: tree_topology(2, 2))

    def spec(self, **settings):
        # Built anew per session: a spec's DatabaseSchema objects are shared
        # with every system built from it, so a relation added in one session
        # would already exist in the next.
        spec = ScenarioSpec.from_topology(self.topology(), records_per_node=2, seed=0)
        return spec.with_(**settings) if settings else spec

    def __init__(self):
        super().__init__()
        self.session = Session.from_spec(self.spec(transport="pooled", shards=2))
        self.session.engine.planner = PinnedPlanner(2)
        self.script = []
        #: The set-difference oracle's copy of what the workers hold, and the
        #: relations cleared since it was taken.
        self.known = snapshot_of(self.session.system)
        self.rewritten = set()
        machine, self._sync = self, ShardPool.sync

        def checked_sync(pool, system):
            oracle = set_difference_delta(system, *machine.known)
            delta = machine._sync(pool, system)
            assert_ships_what_the_oracle_ships(
                system, delta, oracle, machine.known[1], machine.rewritten
            )
            return delta

        ShardPool.sync = checked_sync

    def teardown(self):
        try:
            self.update()
        finally:
            ShardPool.sync = self._sync
            self.session.close()

    def play(self, *step):
        self.script.append(step)
        return apply(self.session, step)

    def change(self, kind, node_pick, relation_pick, payload):
        node_id, relation = pick_relation(self.session, node_pick, relation_pick)
        if self.play(kind, node_pick, relation_pick, payload):
            self.rewritten.add((node_id, relation.name))

    @rule(node=picks, relation=picks, rows=row_seeds)
    def insert(self, node, relation, rows):
        self.change("insert", node, relation, rows)

    @rule(node=picks, relation=picks, row=picks)
    def delete(self, node, relation, row):
        self.change("delete", node, relation, row)

    @rule(node=picks, relation=picks, row=picks)
    def put_back(self, node, relation, row):
        self.change("put_back", node, relation, row)

    @rule(node=picks, relation=picks, rows=row_seeds)
    def transient(self, node, relation, rows):
        self.change("transient", node, relation, rows)

    @rule(node=picks, relation=picks)
    def clear(self, node, relation):
        self.change("replace", node, relation, [])

    @rule(node=picks, relation=picks, rows=row_seeds)
    def replace(self, node, relation, rows):
        self.change("replace", node, relation, rows)

    @rule(node=picks, relation=picks, rows=row_seeds)
    def swap(self, node, relation, rows):
        self.change("swap", node, relation, rows)

    @rule(node=picks)
    def add_relation(self, node):
        self.play("add_relation", node)

    @rule(rule_id=st.sampled_from(sorted(EXTRA_LINKS)))
    def add_link(self, rule_id):
        self.play("add_link", rule_id)

    @rule(pick=picks)
    def delete_link(self, pick):
        self.play("delete_link", pick)

    def run_phase(self, phase):
        self.play("run", phase)
        # Coordinator and workers agree again: the oracle takes a new copy.
        self.known = snapshot_of(self.session.system)
        self.rewritten.clear()

    @rule()
    def discovery(self):
        self.run_phase("discovery")

    @rule()
    def update(self):
        self.run_phase("update")
        with Session.from_spec(self.spec()) as fresh:
            for step in self.script:
                apply(fresh, step)
            expected = ground_part(fresh.databases())
        assert ground_part(self.session.databases()) == expected


class WarmSyncCliqueMachine(WarmSyncMachine):
    topology = staticmethod(lambda: clique_topology(4))


_settings = settings(
    max_examples=8,
    stateful_step_count=14,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
TestWarmSyncTree = WarmSyncMachine.TestCase
TestWarmSyncTree.settings = _settings
TestWarmSyncClique = WarmSyncCliqueMachine.TestCase
TestWarmSyncClique.settings = _settings
