"""Unit tests for the discrete-event transport."""

import pytest

from repro.errors import NetworkError, UnknownPeerError
from repro.network.latency import ConstantLatency, PerHopLatency, UniformLatency
from repro.network.message import Message, MessageType
from repro.network.transport import SyncTransport


def make_message(sender, recipient, payload=None):
    return Message(sender, recipient, MessageType.QUERY, payload or {})


class TestSyncTransport:
    def test_delivery_invokes_handler(self):
        transport = SyncTransport()
        received = []
        transport.register("B", received.append)
        transport.register("A", lambda m: None)
        transport.send(make_message("A", "B"))
        transport.run()
        assert len(received) == 1

    def test_duplicate_registration_rejected(self):
        transport = SyncTransport()
        transport.register("A", lambda m: None)
        with pytest.raises(NetworkError):
            transport.register("A", lambda m: None)

    def test_send_to_unknown_peer(self):
        transport = SyncTransport()
        transport.register("A", lambda m: None)
        with pytest.raises(UnknownPeerError):
            transport.send(make_message("A", "B"))

    def test_clock_advances_by_latency(self):
        transport = SyncTransport(latency=ConstantLatency(2.0))
        transport.register("A", lambda m: None)
        transport.register("B", lambda m: None)
        transport.send(make_message("A", "B"))
        completion = transport.run()
        assert completion == 2.0

    def test_many_concurrent_messages_all_arrive_after_one_hop(self):
        transport = SyncTransport()
        received = []
        transport.register("A", lambda m: None)
        transport.register("B", received.append)
        for _ in range(2000):
            transport.send(make_message("A", "B", {"k": 1}))
        assert transport.run() == 1.0
        assert len(received) == 2000

    def test_handlers_can_send_more_messages(self):
        transport = SyncTransport()
        log = []

        def relay(message):
            log.append(message.recipient)
            if message.recipient == "B":
                transport.send(make_message("B", "C"))

        for node in ("A", "B", "C"):
            transport.register(node, relay)
        transport.send(make_message("A", "B"))
        completion = transport.run()
        assert log == ["B", "C"]
        assert completion == 2.0

    def test_delivery_order_respects_latency(self):
        transport = SyncTransport(
            latency=PerHopLatency(base=1.0, overrides={("A", "B"): 5.0})
        )
        order = []
        transport.register("A", lambda m: None)
        transport.register("B", lambda m: order.append("slow"))
        transport.register("C", lambda m: order.append("fast"))
        transport.send(make_message("A", "B"))
        transport.send(make_message("A", "C"))
        transport.run()
        assert order == ["fast", "slow"]

    def test_step_delivers_one_message(self):
        transport = SyncTransport()
        seen = []
        transport.register("A", lambda m: None)
        transport.register("B", seen.append)
        transport.send(make_message("A", "B"))
        transport.send(make_message("A", "B"))
        transport.step()
        assert len(seen) == 1
        assert transport.pending == 1

    def test_step_when_quiescent_returns_none(self):
        transport = SyncTransport()
        assert transport.step() is None

    def test_message_to_departed_peer_is_dropped(self):
        transport = SyncTransport()
        transport.register("A", lambda m: None)
        transport.register("B", lambda m: None)
        transport.send(make_message("A", "B"))
        transport.unregister("B")
        completion = transport.run()  # must not raise
        assert completion >= 0

    @pytest.mark.parametrize("stepped", [False, True], ids=["run", "step"])
    def test_runaway_protocol_detected(self, stepped):
        transport = SyncTransport(max_messages=10)

        def ping_pong(message):
            transport.send(
                make_message(
                    message.recipient, "A" if message.recipient == "B" else "B"
                )
            )

        transport.register("A", ping_pong)
        transport.register("B", ping_pong)
        transport.send(make_message("A", "B"))
        with pytest.raises(NetworkError, match="exceeded 10 deliveries"):
            if stepped:
                for _ in range(100):
                    transport.step()
            else:
                transport.run()

    def test_stats_record_messages(self):
        transport = SyncTransport()
        transport.register("A", lambda m: None)
        transport.register("B", lambda m: None)
        transport.send(make_message("A", "B"))
        transport.run()
        snapshot = transport.stats.snapshot()
        assert snapshot.total_messages == 1
        assert snapshot.messages.by_type["query"] == 1

    def test_trace_disabled_by_default(self):
        transport = SyncTransport()
        transport.register("A", lambda m: None)
        transport.register("B", lambda m: None)
        transport.send(make_message("A", "B"))
        transport.run()
        assert transport.trace == []

    def test_trace_records_deliveries_when_enabled(self):
        transport = SyncTransport()
        transport.enable_trace()
        transport.register("A", lambda m: None)
        transport.register("B", lambda m: None)
        transport.send(make_message("A", "B"))
        transport.run()
        assert len(transport.trace) == 1
        at_time, message = transport.trace[0]
        assert message.recipient == "B"
        assert at_time == 1.0

    def test_equal_delivery_times_keep_send_order(self):
        transport = SyncTransport()
        order = []
        transport.register("A", lambda m: None)
        for node in ("C", "B", "D"):
            transport.register(node, lambda m: order.append(m.recipient))
        for node in ("C", "B", "D"):
            transport.send(make_message("A", node))
        transport.run()
        assert order == ["C", "B", "D"]


class RecordingLatency:
    """Constant delay that remembers the send index of every draw."""

    def __init__(self):
        self.indices = []

    def delay_for(self, message, index):
        self.indices.append(index)
        return 1.0


def relay_network(latency):
    """A -> B -> C -> D relay plus a direct A -> D message; returns the trace."""
    transport = SyncTransport(latency=latency)
    transport.enable_trace()
    hops = {"B": "C", "C": "D"}

    def relay(message):
        if message.recipient in hops:
            transport.send(make_message(message.recipient, hops[message.recipient]))

    for node in ("A", "B", "C", "D"):
        transport.register(node, relay)
    transport.send(make_message("A", "B"))
    transport.send(make_message("A", "D"))
    completion = transport.run()
    trace = [(at, m.sender, m.recipient) for at, m in transport.trace]
    return completion, trace


class TestSeededSchedules:
    """A seeded UniformLatency makes the simulator a schedule explorer."""

    def test_same_seed_replays_the_same_deliveries(self):
        first = relay_network(UniformLatency(0, 1, seed=4))
        assert relay_network(UniformLatency(0, 1, seed=4)) == first

    def test_other_transports_traffic_does_not_shift_the_schedule(self):
        model = UniformLatency(0, 1, seed=7)
        first = relay_network(model)
        # Unrelated traffic, even through the same model instance.
        relay_network(model)
        relay_network(UniformLatency(0, 1, seed=8))
        assert relay_network(model) == first

    def test_seeds_reorder_concurrent_deliveries(self):
        orders = set()
        for seed in range(20):
            transport = SyncTransport(latency=UniformLatency(0, 1, seed))
            order = []
            transport.register("A", lambda m: None)
            transport.register("B", lambda m: order.append("B"))
            transport.register("C", lambda m: order.append("C"))
            transport.send(make_message("A", "B"))
            transport.send(make_message("A", "C"))
            transport.run()
            orders.add(tuple(order))
        assert orders == {("B", "C"), ("C", "B")}

    def test_delivery_times_stay_within_the_latency_bounds(self):
        transport = SyncTransport(latency=UniformLatency(2.0, 3.0, seed=1))
        transport.enable_trace()
        transport.register("A", lambda m: None)
        transport.register("B", lambda m: None)
        for _ in range(10):
            transport.send(make_message("A", "B"))
        completion = transport.run()
        times = [at for at, _message in transport.trace]
        assert all(2.0 <= at <= 3.0 for at in times)
        assert times == sorted(times)
        assert completion == max(times)

    def test_handler_chaining_completes_at_the_sum_of_the_draws(self):
        model = UniformLatency(0.5, 1.5, seed=3)
        transport = SyncTransport(latency=model)
        log = []

        def relay(message):
            log.append(message.recipient)
            if message.recipient == "B":
                transport.send(make_message("B", "C"))

        for node in ("A", "B", "C"):
            transport.register(node, relay)
        transport.send(make_message("A", "B"))
        completion = transport.run()
        assert log == ["B", "C"]
        expected = model.delay_for(make_message("A", "B"), 0) + model.delay_for(
            make_message("B", "C"), 1
        )
        assert completion == pytest.approx(expected)

    def test_pending_counts_queued_messages_until_quiescence(self):
        transport = SyncTransport(latency=UniformLatency(0, 1, seed=2))
        transport.register("A", lambda m: None)
        transport.register("B", lambda m: None)
        transport.send(make_message("A", "B"))
        transport.send(make_message("B", "A"))
        assert transport.pending == 2
        transport.run()
        assert transport.pending == 0
        assert transport.delivered_count == 2

    def test_send_index_continues_across_runs(self):
        latency = RecordingLatency()
        transport = SyncTransport(latency=latency)
        transport.register("A", lambda m: None)
        transport.register("B", lambda m: None)
        transport.send(make_message("A", "B"))
        transport.send(make_message("A", "B"))
        transport.run()
        transport.send(make_message("B", "A"))
        transport.run()
        assert latency.indices == [0, 1, 2]

    def test_a_refused_send_does_not_consume_a_draw(self):
        latency = RecordingLatency()
        transport = SyncTransport(latency=latency)
        transport.register("A", lambda m: None)
        with pytest.raises(UnknownPeerError):
            transport.send(make_message("A", "B"))
        transport.send(make_message("A", "A"))
        assert latency.indices == [0]
