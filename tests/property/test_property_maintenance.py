"""Stateful test: a maintained fragment always equals a fresh evaluation.

``maintain_fragment`` keeps each outgoing rule's fragment and extends or
recomputes it according to marks on the relations it read.  Whatever
interleaving of inserts, deletes, clears, added relations and rule
replacements happens between two lookups, the lookup must return exactly
what the pure ``fragment_for`` computes from scratch at that moment.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro.coordination.rule import rule_from_text
from repro.core.node import PeerNode
from repro.core.update import fragment_for, maintain_fragment
from repro.database.database import LocalDatabase
from repro.database.schema import DatabaseSchema, RelationSchema
from repro.network.transport import SyncTransport

#: Bodies installed in turn under one rule id; ``t`` may not exist yet.
BODIES = [
    "b: r(X, Y) -> a: h(X, Y)",
    "b: r(X, Y), s(Y, Z) -> a: h(X, Z)",
    "b: r(X, Y), r(Y, Z), X != Z -> a: h(X, Z)",
    "b: r(X, Y), t(Y, Z) -> a: h(X, Z)",
    "b: s(X, X) -> a: h(X, X)",
]

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
        self.rule = rule_from_text("out", BODIES[0])
        self.node.add_outgoing_rule(self.rule)

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

    @rule(body=st.sampled_from(BODIES))
    def replace_rule(self, body):
        self.rule = rule_from_text("out", body)
        self.node.add_outgoing_rule(self.rule)

    @rule()
    def lookup(self):
        maintained = maintain_fragment(self.node, self.rule).rows
        assert maintained == fragment_for(self.node.database, self.rule, "b")
        # Nothing changed since: the very same object comes back.
        assert maintain_fragment(self.node, self.rule).rows is maintained

    def teardown(self):
        self.lookup()


MaintainedFragmentMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)
TestMaintainedFragment = MaintainedFragmentMachine.TestCase
