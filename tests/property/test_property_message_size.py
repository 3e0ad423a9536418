"""``Message.size_estimate`` against the recursive model it replaced.

The byte model is documented on ``size_estimate``; the recursive walk below
is the implementation it had before the flat pass over fragment rows and is
kept here as the reference.  ``total_bytes`` of every experiment depends on
the two agreeing exactly — also when a message carries the size of its
``tuples`` as a hint (a maintained fragment keeps its own) instead of walking
them.
"""

from typing import Any, Mapping

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coordination.rule import rule_from_text
from repro.core.node import PeerNode
from repro.core.update import maintain_fragment
from repro.database.database import LocalDatabase
from repro.database.nulls import LabeledNull
from repro.database.schema import DatabaseSchema, RelationSchema
from repro.network.message import Message, MessageType
from repro.network.transport import SyncTransport


def reference_value_size(value: Any) -> int:
    if isinstance(value, str):
        return len(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return sum(reference_value_size(item) for item in value) + 8
    if isinstance(value, Mapping):
        return (
            sum(
                reference_value_size(k) + reference_value_size(v)
                for k, v in value.items()
            )
            + 8
        )
    return 8


def reference_size(payload: Mapping[str, Any]) -> int:
    return 64 + sum(reference_value_size(value) for value in payload.values())


scalars = st.one_of(
    st.text(max_size=12),
    st.integers(),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False),
    st.builds(LabeledNull, st.text(max_size=6)),
)
#: Hashable values: scalars, and tuples / frozensets of hashable values.
hashables = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(tuple), st.frozensets(inner, max_size=4)
    ),
    max_leaves=12,
)
rows = st.lists(scalars, max_size=6).map(tuple)
fragments = st.frozensets(rows, max_size=12)
anything = st.recursive(
    st.one_of(hashables, fragments),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(hashables, inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
    ),
    max_leaves=20,
)
payloads = st.dictionaries(st.text(max_size=8), anything, max_size=5)


@settings(max_examples=200, deadline=None)
@given(payload=payloads)
def test_size_estimate_equals_the_recursive_model(payload):
    message = Message("a", "b", MessageType.ANSWER, payload)
    assert message.size_estimate() == reference_size(payload)


@given(tuples=fragments, path=st.lists(st.text(max_size=4), max_size=5).map(tuple))
def test_answer_payloads_are_sized_like_the_model(tuples, path):
    payload = {
        "rule_id": "r1",
        "source": "n01",
        "tuples": tuples,
        "complete": False,
        "path": path,
    }
    message = Message("n01", "n00", MessageType.ANSWER, payload)
    assert message.size_estimate() == reference_size(payload)


# ------------------------------------------------- the maintained size (hint)

#: Values of different modelled sizes: strings by length, integers and nulls 8.
cells = st.sampled_from(["1", "22", "", "four", 5, 66, LabeledNull("n")])
pairs = st.tuples(cells, cells)
actions = st.sampled_from(["insert", "delete", "lookup"])
scripts = st.lists(st.tuples(actions, st.sampled_from("rs"), pairs), max_size=30)
OUTGOING = {
    "copy": "b: r(X, Y) -> a: h(X, Y)",
    "join": "b: r(X, Y), s(Y, Z) -> a: h(X, Z)",
    "self": "b: r(X, Y), r(Y, Z) -> a: h(X, Y, Z)",
}


@settings(max_examples=150, deadline=None)
@given(script=scripts)
def test_a_maintained_fragment_knows_its_modelled_size(script):
    """Whatever was inserted and deleted between lookups — the size grown by
    deltas or recomputed in full — ``MaintainedFragment.size`` is the recursive
    model of its rows, and an answer carrying it is sized like any other."""
    transport = SyncTransport()
    schema = [RelationSchema("r", ["x", "y"]), RelationSchema("s", ["x", "y"])]
    node = PeerNode("b", LocalDatabase(DatabaseSchema(schema)), transport)
    answers = []
    transport.register("a", answers.append)
    rules = {
        rule_id: rule_from_text(rule_id, text) for rule_id, text in OUTGOING.items()
    }
    for rule in rules.values():
        node.add_outgoing_rule(rule)

    def look_up():
        for rule in rules.values():
            maintain_fragment(node, rule)
        for entry in node.state.fragment_cache.values():
            assert entry.size == reference_value_size(entry.rows)

    for action, relation, row in script:
        if action == "insert":
            node.database.insert(relation, row)
        elif action == "delete":
            node.database.delete(relation, row)
        else:
            look_up()
    look_up()

    for rule_id in rules:
        query = {"rule_id": rule_id, "requester": "a", "path": ("a",)}
        node.handle(Message("a", "b", MessageType.QUERY, query))
    transport.run()
    assert len(answers) == len(rules)
    for answer in answers:
        assert answer.tuples_size == reference_value_size(answer.payload["tuples"])
        assert answer.size_estimate() == reference_size(answer.payload)


@given(payload=payloads, tuples=fragments)
def test_the_size_hint_replaces_only_the_walk_over_tuples(payload, tuples):
    payload = {**payload, "tuples": tuples}
    hinted = Message(
        "a", "b", MessageType.ANSWER, payload, tuples_size=reference_value_size(tuples)
    )
    assert hinted.size_estimate() == reference_size(payload)
