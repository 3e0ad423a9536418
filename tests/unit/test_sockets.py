"""Unit coverage of the socket layer: framing, hosts, pool lifecycle, wiring.

The wire protocol is tested byte by byte on socket pairs (partial reads,
oversized payloads, truncated frames, garbage pickles); host behaviour and
crash handling against in-process :class:`ShardHost` threads wherever a real
subprocess is not the point; and the auto-spawn / reconnect-and-respawn
story against real ``python -m repro.shardhost`` subprocesses.
"""

import socket
import struct
import threading

import pytest

from repro.api import ScenarioSpec, Session
from repro.api.engine import engine_for
from repro.database.schema import RelationSchema
from repro.errors import NetworkError, ReproError
from repro.sharding.process import ProcessEngine, ProcessTransport
from repro.sharding.sockets import (
    ConnectionClosed,
    LocalHostCluster,
    ShardHost,
    _FrameWriter,
    parse_address,
    recv_frame,
)
from repro.workloads.topologies import tree_topology

RULE = "r1: b: item(X, Y) -> a: item(X, Y)"


@pytest.fixture()
def sock_pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


class TestParseAddress:
    def test_host_and_port(self):
        assert parse_address("example.org:9101") == ("example.org", 9101)

    def test_missing_port_is_rejected(self):
        with pytest.raises(ReproError, match="expected 'HOST:PORT'"):
            parse_address("example.org")

    def test_non_numeric_port_is_rejected(self):
        with pytest.raises(ReproError, match="invalid port"):
            parse_address("example.org:http")


class TestFraming:
    def test_round_trip(self, sock_pair):
        left, right = sock_pair
        writer = _FrameWriter(left, max_frame=1 << 20)
        payload = ("msg", 3, {"rows": [("a", "b")] * 100})
        writer.send(payload)
        assert recv_frame(right, max_frame=1 << 20) == payload

    def test_partial_reads_are_reassembled(self, sock_pair):
        # The sender dribbles the frame one byte at a time: recv_frame must
        # keep reading until the advertised length is complete.
        left, right = sock_pair
        import pickle

        report = ("report", 0, 1, ((0, 0), 0), {"delivered": 0})
        body = pickle.dumps(report)
        frame = struct.pack(">Q", len(body)) + body

        def dribble():
            for index in range(len(frame)):
                left.sendall(frame[index : index + 1])

        sender = threading.Thread(target=dribble)
        sender.start()
        try:
            assert recv_frame(right) == report
        finally:
            sender.join()

    def test_connection_closed_mid_frame_is_an_error(self, sock_pair):
        left, right = sock_pair
        left.sendall(struct.pack(">Q", 100) + b"ten bytes!")
        left.close()
        with pytest.raises(NetworkError, match="mid-frame"):
            recv_frame(right)

    def test_close_right_after_the_header_is_still_mid_frame(self, sock_pair):
        # The header promised a payload; a close before any payload byte is
        # a truncated frame, not a clean frame-boundary disconnect.
        left, right = sock_pair
        left.sendall(struct.pack(">Q", 100))
        left.close()
        with pytest.raises(NetworkError, match="mid-frame") as excinfo:
            recv_frame(right)
        assert not isinstance(excinfo.value, ConnectionClosed)

    def test_clean_eof_at_frame_boundary_is_distinguishable(self, sock_pair):
        left, right = sock_pair
        left.close()
        with pytest.raises(ConnectionClosed):
            recv_frame(right)

    def test_oversized_incoming_frame_is_refused_before_allocation(
        self, sock_pair
    ):
        left, right = sock_pair
        # An absurd length header; the payload is never sent, and must never
        # be waited for — the bound check fails on the header alone.
        left.sendall(struct.pack(">Q", 1 << 62))
        with pytest.raises(NetworkError, match="exceeds the .*max_frame"):
            recv_frame(right, max_frame=1 << 20)

    def test_oversized_outgoing_frame_is_refused(self, sock_pair):
        left, _right = sock_pair
        writer = _FrameWriter(left, max_frame=64)
        with pytest.raises(NetworkError, match="exceeds the 64-byte"):
            writer.send("x" * 1000)

    def test_garbage_payload_is_a_network_error(self, sock_pair):
        left, right = sock_pair
        left.sendall(struct.pack(">Q", 4) + b"\xff\xff\xff\xff")
        with pytest.raises(NetworkError, match="unpickle"):
            recv_frame(right)


class TestShardHost:
    def test_unknown_frame_kind_gets_an_error_reply(self):
        with ShardHost().start() as host:
            with socket.create_connection(host.address, timeout=5.0) as conn:
                _FrameWriter(conn, host.max_frame).send(("frobnicate",))
                kind, shard, message = recv_frame(conn)
                assert kind == "error"
                assert "frobnicate" in message

    def test_a_command_for_a_non_hosted_shard_gets_an_error_reply(self):
        with ShardHost().start() as host:
            with socket.create_connection(host.address, timeout=5.0) as conn:
                writer = _FrameWriter(conn, host.max_frame)
                writer.send(("worlds", 1, []))
                writer.send(("to", 0, ("stop",)))
                kind, shard, _message = recv_frame(conn)
                assert (kind, shard) == ("error", 0)

    def test_malformed_host_frame_marks_the_link_dead(self):
        # A well-pickled frame of the wrong shape from a (version-skewed,
        # buggy) host must read as a protocol failure on the link — exitcode
        # names the malformed frame — not kill the reader thread bare.
        import pickle
        import queue
        import time

        from repro.sharding.sockets import _HostLink

        server = socket.create_server(("127.0.0.1", 0))
        port = server.getsockname()[1]

        def serve():
            conn, _peer = server.accept()
            payload = pickle.dumps(42)  # frame[0] on an int -> TypeError
            conn.sendall(struct.pack(">Q", len(payload)) + payload)
            conn.close()

        sender = threading.Thread(target=serve, daemon=True)
        sender.start()
        link = _HostLink(
            f"127.0.0.1:{port}", queue.Queue(), lambda *args: None, 1 << 20
        )
        try:
            sender.join(timeout=5.0)
            deadline = time.monotonic() + 5.0
            while link.alive and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not link.alive
            assert "malformed frame" in (link.exitcode or "")
        finally:
            link.close()
            server.close()

    def test_both_ends_of_a_host_link_disable_nagle(self):
        import queue
        import time

        from repro.sharding.sockets import _HostLink

        def nodelay(sock):
            return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

        with ShardHost().start() as host:
            link = _HostLink(
                f"127.0.0.1:{host.port}", queue.Queue(), lambda *args: None, 1 << 20
            )
            try:
                deadline = time.monotonic() + 5.0
                while host._conn is None and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert nodelay(link._sock) != 0
                assert nodelay(host._conn) != 0
            finally:
                link.close()

    def test_a_coordinator_reset_before_it_is_served_keeps_the_host_alive(self):
        # Setting an option on a connection the peer already reset can fail
        # (EINVAL on some platforms); the host drops it and accepts the next.
        class ResetConnection:
            closed = False

            def setsockopt(self, *args):
                raise OSError(22, "Invalid argument")

            def close(self):
                self.closed = True

        reset = ResetConnection()
        host = ShardHost()
        listener = host._listener
        pending = [(reset, None)]

        class Listener:
            def accept(self):
                return pending.pop() if pending else listener.accept()

            def close(self):
                listener.close()

        host._listener = Listener()
        with host.start():
            with socket.create_connection(host.address, timeout=5.0) as conn:
                _FrameWriter(conn, host.max_frame).send(("bogus",))
                assert recv_frame(conn)[0] == "error"
        assert reset.closed

    def test_error_reply_to_a_vanished_coordinator_keeps_the_host_alive(self):
        # A client that sends garbage and disconnects before the error reply
        # can land must not take the host process down with a failed write.
        with ShardHost().start() as host:
            conn = socket.create_connection(host.address, timeout=5.0)
            _FrameWriter(conn, host.max_frame).send(("frobnicate",))
            conn.close()
            with socket.create_connection(host.address, timeout=5.0) as conn2:
                _FrameWriter(conn2, host.max_frame).send(("bogus",))
                assert recv_frame(conn2)[0] == "error"

    def test_host_survives_coordinator_churn(self):
        # Two successive "coordinators" (bare connections) against one host:
        # the first drops, the host must accept and serve the second.
        with ShardHost().start() as host:
            for _round in range(2):
                with socket.create_connection(host.address, timeout=5.0) as conn:
                    _FrameWriter(conn, host.max_frame).send(("bogus",))
                    assert recv_frame(conn)[0] == "error"


class TestWiring:
    def test_build_socket_transport_by_kind(self):
        system = ScenarioSpec.of(
            {"a": [RelationSchema("item", ["x", "y"])]},
            transport="socket",
            hosts=["h1:9101", "h2:9102", "h3:9103"],
        ).build_system()
        transport = system.transport
        assert (transport.kind, transport.pool) == ("socket", False)
        assert transport.hosts == ("h1:9101", "h2:9102", "h3:9103")
        # One shard per host unless told otherwise.
        assert transport.shard_count == 3
        assert engine_for(transport).name == "socket"

    def test_pool_flag_selects_the_pooled_socket_engine(self):
        system = ScenarioSpec.of(
            {"a": [RelationSchema("item", ["x", "y"])]},
            transport="socket",
            pool=True,
            shards=2,
        ).build_system()
        assert (system.transport.kind, system.transport.pool) == ("socket", True)
        assert engine_for(system.transport).name == "socket-pooled"

    def test_bad_host_address_fails_at_build_time(self):
        with pytest.raises(ReproError, match="expected 'HOST:PORT'"):
            ScenarioSpec.of(
                {"a": [RelationSchema("item", ["x", "y"])]},
                transport="socket",
                hosts=["no-port-here"],
            ).build_system()

    def test_hosts_with_a_non_socket_transport_is_rejected(self):
        with pytest.raises(ReproError, match="needs transport='socket'"):
            ScenarioSpec.of(
                {"a": [RelationSchema("item", ["x", "y"])]},
                transport="multiproc",
                hosts=["h1:9101"],
            ).build_system()

    def test_spec_hosts_with_a_non_socket_transport_is_rejected(self):
        spec = ScenarioSpec.of(
            {"a": RelationSchema("item", ["x", "y"])},
            transport="sync",
            hosts=("h1:9101",),
        )
        with pytest.raises(ReproError, match="needs transport='socket'"):
            spec.build_system()

    def test_spec_round_trips_hosts(self):
        spec = ScenarioSpec.of(
            {"a": RelationSchema("item", ["x", "y"])},
            transport="socket",
            hosts=("h1:9101", "h2:9102"),
            pool=True,
        )
        loaded = ScenarioSpec.load_json(spec.dump_json())
        assert loaded.transport == "socket"
        assert loaded.hosts == ("h1:9101", "h2:9102")
        assert loaded.pool is True

    def test_socket_engine_rejects_foreign_transports(self):
        system = ScenarioSpec.of(
            {"a": [RelationSchema("item", ["x", "y"])]}, transport="multiproc"
        ).build_system()
        with pytest.raises(ReproError, match="needs a 'socket' ProcessTransport"):
            ProcessEngine("socket").run(system, "update")

    def test_duplicate_host_addresses_are_rejected_at_build_time(self):
        # A host serves one coordinator connection at a time; a duplicate
        # entry would stall in its listen backlog until the worker timeout.
        with pytest.raises(NetworkError, match="duplicate"):
            ProcessTransport("socket", hosts=["h1:9101", "h2:9101", "h1:9101"])


class TestHostDeath:
    def _session(self, addresses):
        spec = ScenarioSpec.from_topology(
            tree_topology(1, 2), records_per_node=2, seed=0
        ).with_(transport="socket", shards=2, hosts=tuple(addresses), pool=True)
        return Session.from_spec(spec)

    def test_host_death_mid_barrier_raises_instead_of_stalling(self):
        # An in-process host that dies while the pool is between runs: the
        # next run_phase must fail fast through the liveness checks (the
        # quiescence barrier's awaits), never stall out the 120 s timeout.
        hosts = [ShardHost().start(), ShardHost().start()]
        addresses = [f"127.0.0.1:{host.port}" for host in hosts]
        try:
            with self._session(addresses) as session:
                session.run("update")
                pool = session.engine.pool
                assert pool.alive
                hosts[1].close()  # kills the served connection mid-pool
                # Which await notices first is a race (a failed write, the
                # liveness check, or the reader's EOF) — any is fine as long
                # as it is a prompt NetworkError, not a 120 s stall.
                with pytest.raises(
                    NetworkError, match="shard|connection|socket write"
                ):
                    pool.run_phase("update", sorted(session.system.nodes))
                assert pool.closed
        finally:
            for host in hosts:
                host.close()

    def test_oversized_reply_surfaces_an_error_not_a_stall(self, monkeypatch):
        # A report too big to frame must come back as a prompt NetworkError
        # naming the shard — never a silent 120 s stall.  The host runs
        # in-process (worker threads share this interpreter), so bloating
        # the worker's report helper makes the report blow the frame bound
        # while every control frame still fits.
        import repro.sharding.worker as worker_module
        from repro.coordination.rule import rule_from_text
        from repro.sharding.worker import _worlds_from_system
        from repro.sharding.planner import ShardPlanner
        from repro.sharding.sockets import SocketPool

        original = worker_module._report

        def bloated(*args, **kwargs):
            report = original(*args, **kwargs)
            report[-1]["ballast"] = "x" * (1 << 20)
            return report

        monkeypatch.setattr(worker_module, "_report", bloated)

        system = ScenarioSpec.of(
            {
                "a": [RelationSchema("item", ["x", "y"])],
                "b": [RelationSchema("item", ["x", "y"])],
            },
            [rule_from_text("r1", "b: item(X, Y) -> a: item(X, Y)")],
            {"b": {"item": [("1", "2")]}},
            transport="socket",
            shards=1,
        ).build_system()
        plan = ShardPlanner(1).plan_system(system)
        worlds = _worlds_from_system(system, plan)
        max_frame = 256 * 1024  # worlds fit; the 1 MiB ballast cannot
        with ShardHost(max_frame=max_frame).start() as host:
            pool = SocketPool(
                plan, worlds, [f"127.0.0.1:{host.port}"], max_frame=max_frame
            )
            try:
                with pytest.raises(NetworkError, match="could not ship"):
                    pool.run_phase("update", sorted(system.nodes))
            finally:
                pool.close()

    def test_extra_hosts_beyond_the_shard_count_are_ignored(self):
        # Round-robin assignment never reaches hosts past the shard count:
        # they are not dialed, and an idle machine dying between warm runs
        # must not fail anything.
        hosts = [ShardHost().start() for _ in range(3)]
        addresses = [f"127.0.0.1:{host.port}" for host in hosts]
        try:
            with self._session(addresses) as session:
                session.run("update")
                pool = session.engine.pool
                assert pool.hosts == tuple(addresses[:2])
                hosts[2].close()  # the unused host going away is a non-event
                session.run("update")
                assert session.engine.pool.alive
        finally:
            for host in hosts:
                host.close()

    def test_run_against_a_dead_host_surfaces_a_connect_error(self):
        # Nothing listens on this port (bound, never accepting via listen
        # backlog 0 is racy — instead bind and close to free a dead port).
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        spec = ScenarioSpec.from_topology(
            tree_topology(1, 2), records_per_node=2, seed=0
        ).with_(transport="socket", shards=1, hosts=(f"127.0.0.1:{port}",))
        with Session.from_spec(spec) as session:
            with pytest.raises(NetworkError, match="cannot connect"):
                session.run("update")


class TestLocalHostCluster:
    def test_reconnect_and_respawn_after_a_host_process_dies(self):
        # The full recovery story on real subprocesses: a run succeeds, a
        # host process is killed, the failed run surfaces a NetworkError,
        # and the *next* run transparently respawns the dead host and
        # reconnects — with the warm pool rebuilt from the live system.
        spec = ScenarioSpec.from_topology(
            tree_topology(1, 2), records_per_node=2, seed=0
        ).with_(transport="socket", shards=2, pool=True)
        with Session.from_spec(spec) as session:
            first = session.run("update")
            cluster = session.engine.cluster
            assert cluster is not None and cluster.alive
            victim = cluster._processes[0]
            victim.terminate()
            victim.wait(timeout=5.0)
            assert not cluster.alive
            recovered = session.run("update")
            assert recovered.completion_time >= first.completion_time
            assert cluster.alive  # the dead host was respawned in place
            assert session.engine.pool is not None and session.engine.pool.alive
        # Leaving the session closes the cluster: no stray host processes.
        assert cluster.host_count == 0

    def test_close_terminates_every_host_process(self):
        cluster = LocalHostCluster(2)
        processes = list(cluster._processes)
        assert cluster.alive and len(cluster.addresses) == 2
        for address in cluster.addresses:
            parse_address(address)  # announced addresses must be dialable
        cluster.close()
        assert all(process.poll() is not None for process in processes)
        cluster.close()  # idempotent
