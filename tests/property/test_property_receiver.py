"""Stateful test: a head node that fires only what an answer adds ends up
exactly where "join everything stored, chase everything" would.

The receiver (``UpdateProtocol.on_answer``) joins and chases only the rows an
answer adds to the stored fragment, trusting a self-validating mark that the
older rows were already offered to the head relation.  The model below knows
nothing of that: after every answer it re-joins *all* rows every source ever
sent — nested loops over variable bindings — and chases every firing, with
its own few lines of A6.  It shares no code with ``join_fragments`` or
``repro.database.evaluate``; only the labelled nulls come from the library's
(deterministic) ``SkolemFactory``.  Whatever the interleaving of answers —
duplicates, the same frozenset object again, answers that shrink, a source
answering before the others exist, delta pushes — with deletes and clears at
the head and with rules re-installed or swapped under the same id, the node's
relation must equal the model's after every step.
"""

from itertools import product

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.coordination.rule import rule_from_text
from repro.core.node import PeerNode
from repro.database.database import LocalDatabase
from repro.database.nulls import SkolemFactory
from repro.database.schema import DatabaseSchema, RelationSchema
from repro.network.message import Message, MessageType
from repro.network.transport import SyncTransport

#: Rules installed in turn under one id: text, fragment columns per source
#: (the order a source ships them in), head terms (``N`` is existential) and
#: an optional comparison over the joined binding.
RULES = [
    ("b: r(X, Y) -> a: h(X, Y)", {"b": "XY"}, "XY", None),
    ("b: r(X, Y), c: s(Y, Z) -> a: h(X, Z)", {"b": "XY", "c": "YZ"}, "XZ", None),
    (
        "b: r(X, Y), c: s(Y, Z), d: t(Z, W) -> a: h(X, W)",
        {"b": "XY", "c": "YZ", "d": "ZW"},
        "XW",
        None,
    ),
    ("b: r(X, Y) -> a: h(X, N)", {"b": "XY"}, "XN", None),
    ("b: r(X, Y), c: s(Y, Z) -> a: h(N, Z)", {"b": "XY", "c": "YZ"}, "NZ", None),
    (
        "b: r(X, Y), c: s(X, Z), Y != Z -> a: h(Y, Z)",
        {"b": "XY", "c": "XZ"},
        "YZ",
        lambda binding: binding["Y"] != binding["Z"],
    ),
]
RULE_ID = "in"

values = st.sampled_from(["1", "2", "3"])
rows = st.tuples(values, values)
fragments = st.frozensets(rows, max_size=5)
sources = st.sampled_from(["b", "c", "d"])
rule_numbers = st.integers(0, len(RULES) - 1)


class ReceiverMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        database = LocalDatabase(DatabaseSchema([RelationSchema("h", ["x", "y"])]))
        transport = SyncTransport()
        self.node = PeerNode("a", database, transport)
        for source in "bcd":
            transport.register(source, lambda message: None)
        self.nulls = SkolemFactory()
        self.model: set[tuple] = set()
        self.install(0)

    def install(self, number):
        text, self.columns, self.head, self.comparison = RULES[number]
        self.rule = rule_from_text(RULE_ID, text)
        for source, columns in self.columns.items():
            shipped = self.rule.body_query_for(source).body_variables
            assert "".join(variable.name for variable in shipped) == columns
        self.node.add_incoming_rule(self.rule)
        # Rows received for another rule have another shape: all forgotten.
        self.stored = {source: set() for source in self.columns}
        self.last = {}

    # ----------------------------------------------------------------- model

    def firings(self):
        """Every binding that joins one stored row per source."""
        for chosen in product(*(self.stored[source] for source in self.columns)):
            binding = {}
            for columns, row in zip(self.columns.values(), chosen):
                if any(binding.setdefault(c, v) != v for c, v in zip(columns, row)):
                    break
            else:
                if self.comparison is None or self.comparison(binding):
                    yield binding

    def chase_everything(self):
        """A6 over every firing: insert the head row unless a row agreeing
        with it on every non-existential position is already there."""
        known = [p for p, term in enumerate(self.head) if term != "N"]
        for binding in self.firings():
            universal = {term: binding[term] for term in self.head if term != "N"}
            row = tuple(
                self.nulls.null_for(RULE_ID, "N", universal)
                if term == "N"
                else binding[term]
                for term in self.head
            )
            if len(known) < len(self.head) and any(
                all(present[p] == row[p] for p in known) for present in self.model
            ):
                continue
            self.model.add(row)

    # ---------------------------------------------------------------- answers

    def deliver(self, source, tuples, *, complete=False, incremental=False):
        payload = {
            "rule_id": RULE_ID,
            "source": source,
            "tuples": tuples,
            "complete": complete,
            "path": (source,),
        }
        if incremental:
            payload["incremental"] = True
        self.node.handle(Message(source, "a", MessageType.ANSWER, payload))
        if source in self.columns:
            self.last[source] = tuples
            self.stored[source] |= tuples
            self.chase_everything()

    @rule(source=sources, tuples=fragments, complete=st.booleans())
    def answer(self, source, tuples, complete):
        """Any whole fragment: may repeat, shrink or precede the other sources."""
        if source in self.columns:
            self.deliver(source, tuples, complete=complete)

    @rule(source=sources, more=fragments)
    def answer_grown(self, source, more):
        """What a maintained sender ships: everything sent before, and more."""
        if source in self.columns:
            self.deliver(source, frozenset(self.stored[source]) | more)

    @rule(source=sources)
    def answer_same_object(self, source):
        if source in self.last:
            self.deliver(source, self.last[source])

    @rule(source=sources, tuples=fragments)
    def answer_delta(self, source, tuples):
        """An incremental run's push: only rows, flagged ``incremental``."""
        if source in self.columns:
            self.deliver(source, tuples, incremental=True)

    # ------------------------------------------------------- the head relation

    @rule(row=rows)
    def insert_at_head(self, row):
        self.node.database.insert("h", row)
        self.model.add(row)

    @rule(row=rows)
    def delete_at_head(self, row):
        self.node.database.delete("h", row)
        self.model.discard(row)

    @rule(data=st.data())
    def delete_derived_row(self, data):
        if self.model:
            row = data.draw(st.sampled_from(sorted(self.model, key=repr)))
            self.node.database.delete("h", row)
            self.model.discard(row)

    @rule()
    def clear_head(self):
        self.node.database.relation("h").clear()
        self.model.clear()

    # ---------------------------------------------------------------- the rule

    @rule(number=rule_numbers)
    def remove_and_add_rule(self, number):
        self.node.remove_incoming_rule(RULE_ID)
        self.install(number)

    @rule(number=rule_numbers)
    def swap_rule(self, number):
        """Another rule object under the same id, nothing removed first."""
        self.install(number)

    @invariant()
    def database_equals_the_model(self):
        assert self.node.database.relation("h").rows() == self.model


ReceiverMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)
TestReceiver = ReceiverMachine.TestCase
