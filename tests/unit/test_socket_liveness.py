"""Direct units for the socket layer's liveness and framing edge paths.

The parity suites exercise these only incidentally (and only on the happy
path); here each failure mode is pinned on its own: partial reads across
fragmented frames, clean closes vs mid-frame closes, the oversize-frame
bound, the idle-timeout distinction, and the socket
:class:`~repro.sharding.pool.Channel` (:class:`HostChannel`) that presents a
host link plus a shard id through the liveness surface the await loops poll.
"""

import socket
import struct
import threading

import pytest

from repro.errors import NetworkError
from repro.faults import NULL_INJECTOR
from repro.sharding.sockets import (
    ConnectionClosed,
    HostChannel,
    _FrameWriter,
    _IdleTimeout,
    _recv_exact,
    parse_address,
    recv_frame,
)


@pytest.fixture
def pair():
    """A connected local socket pair; both ends closed after the test."""
    left, right = socket.socketpair()
    try:
        yield left, right
    finally:
        left.close()
        right.close()


def send_frame(sock, obj, max_frame=2**20):
    _FrameWriter(sock, max_frame).send(obj)


class TestRecvExact:
    def test_reassembles_arbitrarily_fragmented_sends(self, pair):
        left, right = pair
        payload = bytes(range(256)) * 40

        def dribble():
            for i in range(0, len(payload), 7):
                left.sendall(payload[i : i + 7])

        thread = threading.Thread(target=dribble)
        thread.start()
        try:
            assert _recv_exact(right, len(payload)) == payload
        finally:
            thread.join()

    def test_clean_close_at_boundary_is_connection_closed(self, pair):
        left, right = pair
        left.close()
        with pytest.raises(ConnectionClosed):
            _recv_exact(right, 4)

    def test_close_mid_read_is_a_hard_network_error(self, pair):
        left, right = pair
        left.sendall(b"ab")
        left.close()
        with pytest.raises(NetworkError, match="mid-frame") as excinfo:
            _recv_exact(right, 4)
        # Not the clean-close subtype: callers distinguish the two.
        assert not isinstance(excinfo.value, ConnectionClosed)

    def test_idle_timeout_only_before_any_byte(self, pair):
        left, right = pair
        right.settimeout(0.05)
        with pytest.raises(_IdleTimeout):
            _recv_exact(right, 4, idle_ok=True)
        left.sendall(b"a")  # a frame has started: a stall is now an error
        with pytest.raises(NetworkError, match="wedged"):
            _recv_exact(right, 4, idle_ok=True)

    def test_timeout_without_idle_ok_is_an_error(self, pair):
        _left, right = pair
        right.settimeout(0.05)
        with pytest.raises(NetworkError):
            _recv_exact(right, 4)


class TestRecvFrame:
    def test_round_trips_a_pickled_object(self, pair):
        left, right = pair
        send_frame(left, {"shard": 3, "rows": [("a", "b")]})
        assert recv_frame(right) == {"shard": 3, "rows": [("a", "b")]}

    def test_oversize_header_refuses_before_reading_the_payload(self, pair):
        left, right = pair
        left.sendall(struct.pack(">Q", 2**40))
        with pytest.raises(NetworkError, match="max_frame"):
            recv_frame(right, max_frame=1024)

    def test_oversize_send_is_refused_symmetrically(self, pair):
        left, _right = pair
        with pytest.raises(NetworkError, match="max_frame"):
            _FrameWriter(left, max_frame=8).send("x" * 64)

    def test_close_after_header_is_a_truncated_frame(self, pair):
        left, right = pair
        left.sendall(struct.pack(">Q", 100))
        left.close()
        with pytest.raises(NetworkError, match="mid-frame") as excinfo:
            recv_frame(right)
        assert not isinstance(excinfo.value, ConnectionClosed)

    def test_unpicklable_payload_is_diagnosed(self, pair):
        left, right = pair
        left.sendall(struct.pack(">Q", 4) + b"junk")
        with pytest.raises(NetworkError, match="unpickle"):
            recv_frame(right)


class FakeLink:
    """The link surface the socket channel reads."""

    def __init__(self, address="h:9101"):
        self.address = address
        self.alive = True
        self.exitcode = None
        self.injector = NULL_INJECTOR
        self.sent = []

    def send(self, obj):
        self.sent.append(obj)


class TestHostChannel:
    def test_mirrors_the_link_state(self):
        link = FakeLink()
        channel = HostChannel(link, shard=0)
        assert channel.alive is True
        link.alive = False
        assert channel.alive is False

    def test_reason_prefers_the_recorded_one(self):
        link = FakeLink(address="far:1")
        channel = HostChannel(link, shard=0)
        assert "far:1" in channel.reason  # no reason yet: generic loss
        link.exitcode = "malformed frame"
        assert channel.reason == "malformed frame"

    def test_put_frames_the_command_with_its_shard_id(self):
        link = FakeLink()
        channel = HostChannel(link, shard=3)
        channel.put(("stop",))
        assert link.sent == [("to", 3, ("stop",))]


class TestParseAddress:
    def test_splits_host_and_port(self):
        assert parse_address("10.0.0.5:9101") == ("10.0.0.5", 9101)
        assert parse_address("::1:8000") == ("::1", 8000)

    def test_rejects_missing_parts(self):
        for bad in ("nohost", ":9101", "host:", "host:abc"):
            with pytest.raises(Exception):
                parse_address(bad)
