"""Stateful test: a maintained fragment always equals a fresh evaluation.

``maintain_fragment`` keeps the fragment of each body the outgoing rules read
— one per body, shared by the rules that read it — and extends or recomputes
it according to marks on the relations it read.  Whatever interleaving of
inserts, deletes, clears, added relations and rule replacements happens
between two lookups, the lookup must return, for each of two rules that
sometimes share a body, exactly what the pure ``fragment_for`` computes from
scratch at that moment; and no fragment outlives the last rule reading its
body.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro.coordination.rule import rule_from_text
from repro.core.node import PeerNode
from repro.core.update import fragment_body, fragment_for, maintain_fragment
from repro.database.database import LocalDatabase
from repro.database.schema import DatabaseSchema, RelationSchema
from repro.network.transport import SyncTransport

#: Bodies installed in turn under each rule id; ``t`` may not exist yet.
BODIES = [
    "b: r(X, Y) -> a: h(X, Y)",
    "b: r(X, Y), s(Y, Z) -> a: h(X, Z)",
    "b: r(X, Y), r(Y, Z), X != Z -> a: h(X, Z)",
    "b: r(X, Y), t(Y, Z) -> a: h(X, Z)",
    "b: s(X, X) -> a: h(X, X)",
]

RULE_IDS = ("out", "twin")

values = st.sampled_from(["1", "2", "3", "4"])
rows = st.tuples(values, values)
names = st.sampled_from(["r", "s", "t"])


class MaintainedFragmentMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        database = LocalDatabase(
            DatabaseSchema(
                [RelationSchema("r", ["x", "y"]), RelationSchema("s", ["x", "y"])]
            )
        )
        self.node = PeerNode("b", database, SyncTransport())
        # Two rules over one body to start with.
        self.rules = {
            rule_id: rule_from_text(rule_id, BODIES[0]) for rule_id in RULE_IDS
        }
        for installed in self.rules.values():
            self.node.add_outgoing_rule(installed)

    @rule(name=names, row=rows)
    def insert(self, name, row):
        if name in self.node.database:
            self.node.database.insert(name, row)

    @rule(name=names, row=rows)
    def delete(self, name, row):
        if name in self.node.database:
            self.node.database.delete(name, row)

    @rule(name=names)
    def clear(self, name):
        if name in self.node.database:
            self.node.database.relation(name).clear()

    @precondition(lambda self: "t" not in self.node.database)
    @rule()
    def add_relation(self):
        self.node.database.add_relation(RelationSchema("t", ["x", "y"]))

    @rule(rule_id=st.sampled_from(RULE_IDS), body=st.sampled_from(BODIES))
    def replace_rule(self, rule_id, body):
        self.node.remove_outgoing_rule(rule_id)
        self.rules[rule_id] = rule_from_text(rule_id, body)
        self.node.add_outgoing_rule(self.rules[rule_id])

    @rule()
    def lookup(self):
        maintained = {}
        for rule_id, installed in self.rules.items():
            rows = maintain_fragment(self.node, installed).rows
            assert rows == fragment_for(self.node.database, installed, "b")
            maintained[rule_id] = rows
        for rule_id, installed in self.rules.items():
            # Nothing changed since: the very same object comes back.
            rows = maintain_fragment(self.node, installed).rows
            assert rows is maintained[rule_id]
        bodies = {fragment_body(each, "b")[0] for each in self.rules.values()}
        # Both rules' bodies are kept, and nothing else.
        assert set(self.node.state.fragment_cache) == bodies
        if len(bodies) == 1:
            assert maintained["out"] is maintained["twin"]

    def teardown(self):
        self.lookup()


MaintainedFragmentMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)
TestMaintainedFragment = MaintainedFragmentMachine.TestCase
