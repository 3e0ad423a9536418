"""Unit tests for messages, pipes, latency models and advertisements."""

import dataclasses
import pickle

import pytest

from repro.errors import PipeClosedError
from repro.network.advertisement import Advertisement, DiscoveryService
from repro.network.latency import ConstantLatency, PerHopLatency, UniformLatency
from repro.network.message import Message, MessageType
from repro.network.pipe import Pipe, PipeTable


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

    def test_message_types_cover_both_phases(self):
        values = {t.value for t in MessageType}
        assert {"request_nodes", "discovery_answer", "query", "answer"} <= values


class TestPipes:
    def test_pipe_lifecycle(self):
        pipe = Pipe("A", "B")
        pipe.assign_rule("r1")
        pipe.assign_rule("r2")
        pipe.unassign_rule("r1")
        assert not pipe.closed
        pipe.unassign_rule("r2")
        assert pipe.closed

    def test_check_open_raises_when_closed(self):
        pipe = Pipe("A", "B", closed=True)
        with pytest.raises(PipeClosedError):
            pipe.check_open()

    def test_reassigning_reopens(self):
        pipe = Pipe("A", "B")
        pipe.assign_rule("r1")
        pipe.unassign_rule("r1")
        pipe.assign_rule("r2")
        assert not pipe.closed

    def test_pipe_table_shares_pipe_between_rules(self):
        table = PipeTable()
        first = table.ensure_pipe("A", "B", "r1")
        second = table.ensure_pipe("B", "A", "r2")
        assert first is second
        assert len(table) == 1

    def test_pipe_table_closes_unused_pipe(self):
        table = PipeTable()
        table.ensure_pipe("A", "B", "r1")
        table.drop_rule("A", "B", "r1")
        assert table.open_pipes() == []

    def test_pipe_table_unknown_pair(self):
        table = PipeTable()
        assert table.pipe_for("A", "B") is None
        assert table.drop_rule("A", "B", "r") is None


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


class TestDiscoveryService:
    def test_publish_lookup_withdraw(self):
        service = DiscoveryService()
        service.publish(Advertisement("A", ("pub",)))
        assert service.lookup("A").shared_relations == ("pub",)
        service.withdraw("A")
        assert service.lookup("A") is None

    def test_peers_by_group(self):
        service = DiscoveryService()
        service.publish_all(
            [Advertisement("A", group="g1"), Advertisement("B", group="g2")]
        )
        assert service.peers("g1") == ("A",)
        assert set(service.peers()) == {"A", "B"}

    def test_peers_sharing_relation(self):
        service = DiscoveryService()
        service.publish(Advertisement("A", ("pub", "work")))
        service.publish(Advertisement("B", ("work",)))
        assert set(service.peers_sharing("work")) == {"A", "B"}
        assert service.peers_sharing("nope") == ()

    def test_advertisement_attributes(self):
        ad = Advertisement("A", attributes=(("version", "1"),))
        assert ad.attribute("version") == "1"
        assert ad.attribute("missing", "default") == "default"
