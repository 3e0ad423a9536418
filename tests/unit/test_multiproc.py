"""Unit tests for the coordinator side of the multi-process engine.

Everything here runs without spawning a single child process: the worker
transport's routing/stamping logic is driven directly, and the coordinator
transport is exercised as the configuration-and-counters handle it is.
The cross-process end-to-end behaviour lives in
``tests/integration/test_multiproc_parity.py``.
"""

import pytest

from repro.api.engine import engine_for
from repro.api.spec import ScenarioSpec
from repro.errors import NetworkError, ReproError
from repro.network.message import Message, MessageType
from repro.sharding import ProcessEngine, ProcessTransport, ShardPlan
from repro.sharding.process import traffic_stats
from repro.sharding.worker import ShardWorld, _WorkerTransport, _worlds_from_system
from repro.database.schema import DatabaseSchema, RelationSchema
from repro.coordination.rule import rule_from_text


def _item_schemas(*names):
    return {
        name: DatabaseSchema([RelationSchema("item", ["x", "y"])]) for name in names
    }


class _ListQueue:
    """A stand-in for an mp.Queue capturing what a worker would ship out."""

    def __init__(self):
        self.items = []

    def put(self, item):
        self.items.append(item)


class TestProcessTransport:
    def test_engine_for_picks_multiproc_engine(self):
        transport = ProcessTransport(shard_count=2)
        assert engine_for(transport).name == "multiproc"

    def test_system_build_knows_the_multiproc_kind(self):
        system = ScenarioSpec.of(
            _item_schemas("a", "b"), transport="multiproc", shards=3
        ).build_system()
        assert (system.transport.kind, system.transport.pool) == ("multiproc", False)
        assert system.transport.shard_count == 3

    def test_send_is_refused_on_the_coordinator(self):
        transport = ProcessTransport(shard_count=2)
        transport.register("a", lambda message: None)
        with pytest.raises(NetworkError):
            transport.send(
                Message(sender="a", recipient="a", type=MessageType.QUERY)
            )

    def test_plan_must_cover_registered_peers(self):
        transport = ProcessTransport(shard_count=2)
        transport.register("a", lambda message: None)
        transport.register("b", lambda message: None)
        with pytest.raises(NetworkError):
            transport.apply_plan(ShardPlan(shard_count=2, shard_of={"a": 0}))

    def test_plan_with_too_many_shards_raises(self):
        transport = ProcessTransport(shard_count=1)
        with pytest.raises(NetworkError):
            transport.apply_plan(
                ShardPlan(shard_count=2, shard_of={"a": 0, "b": 1})
            )

    def test_at_least_one_shard_required(self):
        with pytest.raises(NetworkError):
            ProcessTransport(shard_count=0)

    def test_shard_of_requires_a_plan(self):
        transport = ProcessTransport(shard_count=2)
        with pytest.raises(NetworkError):
            transport.shard_of("a")

    def test_record_run_accumulates_counters(self):
        transport = ProcessTransport(shard_count=2)
        transport.record_run({0: 10, 1: 5}, cross_shard=3)
        transport.record_run({0: 2}, cross_shard=1)
        assert transport.delivered_count == 17
        assert transport.shard_message_counts() == {0: 12, 1: 5}
        assert transport.cross_shard_messages == 4
        assert transport.intra_shard_messages == 13

    def test_traffic_stats_group_counters_by_the_plan(self):
        system = ScenarioSpec.of(
            _item_schemas("a", "b", "c"), transport="multiproc", shards=2
        ).build_system()
        transport = system.transport
        transport.apply_plan(
            ShardPlan(shard_count=2, shard_of={"a": 0, "b": 1, "c": 1})
        )
        transport.record_run({0: 5, 1: 2}, cross_shard=1)
        for node, received in (("a", 3), ("b", 4), ("c", 6)):
            transport.stats.record_update(node, received=received, inserted=0)
        traffic = traffic_stats(transport, transport.stats.snapshot())
        assert traffic.shard_count == 2
        assert traffic.messages_by_shard == {0: 5, 1: 2}
        assert traffic.tuples_by_shard == {0: 3, 1: 10}
        assert traffic.cross_shard_messages == 1
        assert traffic.intra_shard_messages == 6

    def test_engine_rejects_other_transports(self, chain_system):
        with pytest.raises(ReproError):
            ProcessEngine().run(chain_system, "update")

    def test_engine_rejects_unknown_phase(self):
        system = ScenarioSpec.of(
            _item_schemas("a"), transport="multiproc", shards=1
        ).build_system()
        with pytest.raises(ReproError):
            ProcessEngine().run(system, "gossip")


class TestWorkerTransport:
    def _transport(self):
        outboxes = [_ListQueue(), _ListQueue()]
        transport = _WorkerTransport(
            shard_index=0,
            shard_of={"a": 0, "b": 1},
            outboxes=outboxes,
            latency=None,  # defaults to ConstantLatency(1.0)
            max_messages=100,
        )
        transport.register("a", lambda message: None)
        transport.register("b", lambda message: None)
        return transport, outboxes

    def test_local_send_stays_in_the_worker(self):
        transport, outboxes = self._transport()
        transport.send(Message(sender="b", recipient="a", type=MessageType.QUERY))
        assert outboxes[1].items == []
        transport.drain()
        assert transport.delivered == 1
        assert transport.cross_sent == [0, 0]

    def test_cross_send_goes_through_the_outbox(self):
        transport, outboxes = self._transport()
        transport.send(Message(sender="a", recipient="b", type=MessageType.QUERY))
        assert transport.cross_sent == [0, 1]
        kind, run, deliver_at, message = outboxes[1].items[0]
        assert (kind, run) == ("msg", transport.run)
        assert deliver_at == pytest.approx(1.0)  # clock 0 + constant latency
        assert message.recipient == "b"
        # Cross-shard messages are not delivered locally.
        transport.drain()
        assert transport.delivered == 0

    def test_received_cross_message_advances_the_clock(self):
        transport, _outboxes = self._transport()
        transport.receive_cross(
            0, 7.5, Message(sender="b", recipient="a", type=MessageType.ANSWER)
        )
        transport.drain()
        assert transport.clock == pytest.approx(7.5)
        assert transport.cross_received == 1

    def test_unregistered_recipient_raises(self):
        transport, _outboxes = self._transport()
        with pytest.raises(NetworkError):
            transport.send(
                Message(sender="a", recipient="zz", type=MessageType.QUERY)
            )

    def test_max_messages_bound_raises(self):
        outboxes = [_ListQueue()]
        transport = _WorkerTransport(0, {"a": 0}, outboxes, None, max_messages=2)

        def echo(message):
            transport.send(
                Message(sender="a", recipient="a", type=MessageType.QUERY)
            )

        transport.register("a", echo)
        transport.send(Message(sender="a", recipient="a", type=MessageType.QUERY))
        with pytest.raises(NetworkError):
            transport.drain()


class TestShardWorlds:
    def test_worlds_slice_data_by_ownership(self):
        system = ScenarioSpec.of(
            _item_schemas("a", "b"),
            [rule_from_text("ab", "b: item(X, Y) -> a: item(X, Y)")],
            {"a": {"item": [("1", "2")]}, "b": {"item": [("3", "4")]}},
            transport="multiproc",
            shards=2,
        ).build_system()
        plan = ShardPlan(shard_count=2, shard_of={"a": 0, "b": 1})
        worlds = _worlds_from_system(system, plan)
        assert [world.owned for world in worlds] == [("a",), ("b",)]
        assert set(worlds[0].data_slice) == {"a"}
        assert set(worlds[1].data_slice) == {"b"}
        # Schemas and rules span the whole network in every world (rules
        # mention remote peers, so each worker rebuilds the full graph).
        for world in worlds:
            assert set(world.schemas) == {"a", "b"}
            assert len(world.rules) == 1

    def test_world_is_picklable(self):
        import pickle

        world = ShardWorld(
            shard_index=0,
            shard_of={"a": 0, "b": 1},
            schemas=_item_schemas("a", "b"),
            rules=(rule_from_text("ab", "b: item(X, Y) -> a: item(X, Y)"),),
            data_slice={"a": {"item": frozenset({("1", "2")})}},
            propagation={"a": "once", "b": "once"},
            latency=None,
            max_messages=10,
        )
        clone = pickle.loads(pickle.dumps(world))
        assert clone.owned == ("a",)
        assert clone.data_slice["a"]["item"] == frozenset({("1", "2")})
