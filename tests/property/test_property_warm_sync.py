"""Stateful test: a warm session never drifts from a naive replay.

The session hands its engine what changed since the previous run — cursors'
worth of rows, what each relation appended or deleted since the session
last read it, and whole relations where a mark does not validate — and the
engine decides whether the next update can extend the last fix-point.
Whatever the script does between two runs (inserts anywhere, deletes, rows
deleted and put back or inserted and deleted again, clears, rewritten,
swapped and added relations, ``addLink`` / ``deleteLink``, discovery runs,
updates from one origin), on a warm ``sync`` or ``pooled`` session two
things must hold:

* after every step its ground databases equal those of a ``sync`` system
  that plays the same script on the same spec, every run on a fresh
  session (``run_naive``) — an oracle that never takes the delta path nor
  crosses the process boundary;
* every :class:`~repro.coordination.changeset.Change` the engine is handed
  is what the former set-difference sync (``tests/sync_oracle.py``) computes
  from a full copy of the world.

One rule plays a change, a discovery, a change and an update on a primed
session, with both changes feeding a copy rule: the update must deliver the
rows of both, so a pending change dropped or replaced at the discovery's
start shows within the tier-1 budget.
"""

from functools import partial

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.api.session import Session
from repro.api.spec import ScenarioSpec
from repro.coordination.rule import rule_from_text
from repro.core.fixpoint import ground_part
from repro.database.schema import RelationSchema
from repro.workloads.topologies import clique_topology, tree_topology
from engines import ENGINES, run_naive
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


def pick_relation(system, node_pick, relation_pick):
    nodes = sorted(system.nodes)
    node_id = nodes[node_pick % len(nodes)]
    relations = list(system.node(node_id).database.relations())
    return node_id, relations[relation_pick % len(relations)]


def feeding_picks(system, pick):
    """``(node_pick, relation_pick)`` of the body relation of a copy rule (a
    one-atom body), so rows inserted there travel on; ``pick + 1`` picks
    another relation while two remain.  ``(pick, pick)`` when the script
    deleted every copy rule."""
    sites = sorted(
        {
            (exporter, atom.relation)
            for rule in system.registry
            if len(rule.body) == 1
            for exporter, atom in rule.body
        }
    )
    if not sites:
        return pick, pick
    exporter, name = sites[pick % len(sites)]
    names = [relation.name for relation in system.node(exporter).database.relations()]
    return sorted(system.nodes).index(exporter), names.index(name)


def apply(system, run, step):
    """Play one script step on ``system``, whose runs ``run`` makes; True if
    it rewrote a relation."""
    kind, *arguments = step
    if kind == "run":
        phase, origins = arguments
        run(phase, origins=origins)
    elif kind == "add_link":
        (rule_id,) = arguments
        if rule_id not in {rule.rule_id for rule in system.registry}:
            system.add_rule(rule_from_text(rule_id, EXTRA_LINKS[rule_id]))
    elif kind == "delete_link":
        (pick,) = arguments
        rule_ids = sorted(rule.rule_id for rule in system.registry)
        if len(rule_ids) > 1:
            system.remove_rule(rule_ids[pick % len(rule_ids)])
    elif kind == "add_relation":
        node_id, _relation = pick_relation(system, arguments[0], 0)
        database = system.node(node_id).database
        if "extra" not in database:
            database.add_relation(RelationSchema("extra", ["k", "v"]))
        database.insert("extra", ("k1", node_id))
    else:
        node_pick, relation_pick, payload = arguments
        node_id, relation = pick_relation(system, node_pick, relation_pick)
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
            database = system.node(node_id).database
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

    @initialize(engine=st.sampled_from(["sync", "pooled"]))
    def open(self, engine):
        self.session = Session.from_spec(self.spec(**ENGINES[engine]))
        self.reference = self.spec().build_system()
        #: The set-difference oracle's copy of what the session last read,
        #: and the relations cleared since it was taken.
        self.known = snapshot_of(self.session.system)
        self.rewritten = set()
        machine, run = self, self.session.engine.run

        def checked_run(system, phase, origins=None, change=None):
            if change is not None:  # None: a first run, nothing to compare
                oracle = set_difference_delta(system, *machine.known)
                assert_ships_what_the_oracle_ships(
                    system, change, oracle, machine.known[1], machine.rewritten
                )
            return run(system, phase, origins, change)

        self.session.engine.run = checked_run

    def teardown(self):
        try:
            self.update()
        finally:
            self.session.close()

    def play(self, *step):
        session, reference = self.session, self.reference
        rewrote = apply(session.system, session.run, step)
        apply(reference, partial(run_naive, reference), step)
        assert ground_part(session.databases()) == ground_part(reference.databases())
        return rewrote

    def change(self, kind, node_pick, relation_pick, payload):
        node_id, relation = pick_relation(self.session.system, node_pick, relation_pick)
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

    def run_phase(self, phase, origins=None):
        self.play("run", phase, origins)
        # The session read everything: the oracle takes a new copy.
        self.known = snapshot_of(self.session.system)
        self.rewritten.clear()

    @rule()
    def discovery(self):
        self.run_phase("discovery")

    @rule()
    def update(self):
        self.run_phase("update")

    @rule(node=picks)
    def update_from_one_origin(self, node):
        nodes = sorted(self.session.system.nodes)
        self.run_phase("update", (nodes[node % len(nodes)],))

    @rule(site=picks, first=row_seeds, second=row_seeds)
    def change_discover_change_update(self, site, first, second):
        self.update()  # primed: the next whole update may take the delta path
        self.change("insert", *feeding_picks(self.session.system, site), first)
        self.discovery()
        self.change("insert", *feeding_picks(self.session.system, site + 1), second)
        self.update()


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
