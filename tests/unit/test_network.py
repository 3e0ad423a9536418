"""Unit tests for messages and latency models."""

import dataclasses
import pickle

import pytest

import repro.core.node as node_module
from repro.network.latency import ConstantLatency, PerHopLatency, UniformLatency
from repro.network.message import Message, MessageType


class TestMessage:
    def _message(self, payload=None):
        return Message("A", "B", MessageType.QUERY, payload or {})

    def test_sequence_numbers_increase(self):
        first, second = self._message(), self._message()
        assert second.sequence > first.sequence

    def test_size_estimate_grows_with_payload(self):
        small = self._message({"tuples": frozenset({("a", "b")})})
        wide = frozenset({("a" * 50, "b" * 50) for _ in range(1)})
        many = {(str(i), str(i)) for i in range(20)}
        large = self._message({"tuples": wide | many})
        assert large.size_estimate() > small.size_estimate()

    def test_size_estimate_counts_strings_and_mappings(self):
        message = self._message({"text": "x" * 100, "nested": {"k": "v"}})
        assert message.size_estimate() >= 100

    def test_size_hint_is_not_part_of_the_message(self):
        """A known ``tuples`` size is added instead of walked; it changes
        neither equality nor the repr, and survives the process engines'
        pickle frames."""
        tuples = frozenset({("a", "bb"), ("ccc", 4)})
        plain = self._message({"tuples": tuples, "path": ("A",)})
        size = plain.size_estimate()
        hinted = dataclasses.replace(plain, tuples_size=8 + (8 + 1 + 2) + (8 + 3 + 8))
        assert hinted.size_estimate() == size
        assert hinted == plain and repr(hinted) == repr(plain)
        assert pickle.loads(pickle.dumps(hinted)).size_estimate() == size
        # The hint is trusted, not checked: it is the sender's statement.
        assert dataclasses.replace(plain, tuples_size=0).size_estimate() < size

    def test_str_mentions_endpoints(self):
        assert "A->B" in str(self._message())

    def test_the_vocabulary_is_exactly_what_peers_handle(self):
        """Every message type has a peer handler and every handler a type:
        the two phases' four messages and nothing else."""
        assert set(node_module._HANDLERS) == set(MessageType)
        values = {t.value for t in MessageType}
        assert values == {"request_nodes", "discovery_answer", "query", "answer"}

    @pytest.mark.parametrize("kind", list(MessageType))
    def test_a_frames_string_type_reaches_the_same_handler(self, kind):
        """Socket frames carry the type's string value; it must dispatch
        exactly as the enum member does."""
        assert MessageType(kind.value) is kind
        assert node_module._HANDLERS[kind.value] is node_module._HANDLERS[kind]


class TestLatencyModels:
    def _message(self):
        return Message("A", "B", MessageType.QUERY, {})

    def test_constant_latency(self):
        assert ConstantLatency(2.5).delay_for(self._message(), 0) == 2.5

    def test_constant_latency_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1)

    def test_uniform_latency_within_bounds_and_deterministic(self):
        model = UniformLatency(1.0, 2.0, seed=42)
        delay = model.delay_for(self._message(), 3)
        assert 1.0 <= delay <= 2.0
        # The draw is keyed by the send index, not by the message object.
        assert model.delay_for(self._message(), 3) == delay

    def test_uniform_latency_seeds_give_different_draws(self):
        draws = {
            UniformLatency(0.0, 1.0, seed=seed).delay_for(self._message(), 0)
            for seed in range(5)
        }
        assert len(draws) == 5

    def test_zero_width_uniform_latency_is_constant(self):
        model = UniformLatency(2.0, 2.0, seed=1)
        assert {model.delay_for(self._message(), index) for index in range(5)} == {
            2.0
        }

    def test_uniform_latency_validates_bounds(self):
        with pytest.raises(ValueError):
            UniformLatency(3.0, 1.0)

    def test_per_hop_latency_override(self):
        model = PerHopLatency(base=1.0, overrides={("A", "B"): 5.0})
        assert model.delay_for(self._message(), 0) == 5.0
        assert model.delay_for(Message("B", "A", MessageType.QUERY, {}), 1) == 1.0
