"""``Message.size_estimate`` against the recursive model it replaced.

The byte model is documented on ``size_estimate``; the recursive walk below
is the implementation it had before the flat pass over fragment rows and is
kept here as the reference.  ``total_bytes`` of every experiment depends on
the two agreeing exactly.
"""

from typing import Any, Mapping

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database.nulls import LabeledNull
from repro.network.message import Message, MessageType


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
