"""Socket-backed shard hosts: the process-backed engines across machines.

Spawned worker processes confine all K shards to one box's cores, which caps
the sweeps near 1023 nodes.  The paper's coordination model is inherently
distributed, and the pool's delta sync and cumulative-ledger quiescence
barrier are already transport-shaped for the wire.  This module puts them on
it:

* :class:`ShardHost` is a standalone server process
  (``python -m repro.shardhost --bind HOST:PORT``) that steps every
  :class:`~repro.sharding.worker.ShardWorker` it hosts on the one thread
  serving its coordinator (one *process per host*, so a cluster of hosts is
  what buys multi-core/multi-machine parallelism).  Co-hosted shards hand
  each other messages in memory.
* :class:`HostChannel` is the second (and last)
  :class:`~repro.sharding.pool.Channel`: a link plus a shard id, framing
  every command as ``("to", shard, command)``.  A hosted worker's message
  for a shard on *another* host is the same frame, and the pool's reply
  source (:class:`~repro.sharding.pool.Replies`) relays it inline
  (hub-and-spoke: only the coordinator needs to reach the hosts).
* :class:`SocketPool` is the :class:`~repro.sharding.pool.ShardPool` whose
  channels are made by dialing the hosts and shipping each its pickled
  :class:`~repro.sharding.worker.ShardWorld`\\ s in length-prefixed frames.
* :class:`LocalHostCluster` auto-spawns K localhost hosts as subprocesses
  for a ``transport="socket"`` system with no ``hosts`` list, so tests,
  benchmarks and CI need no real cluster.

Flow control: each end of a link runs on one thread, so two ends that both
wrote with blocking calls could fill each other's buffers and wait forever.
The **host** queues: it writes only what the socket takes when ``select``
says it will (:class:`_Wire`), and reads the coordinator's frames in
between.  The coordinator writes with a blocking ``sendall`` and reads whole
frames.  That cannot deadlock: the coordinator waits only on hosts, and a
host waits only for the rest of a frame the coordinator is already sending.
The host is the side that queues because its loop polls between steps
anyway; the coordinator's sends stay synchronous, so a failed ``start``
raises where it is made.

Liveness: a link that reads EOF, a reset or a malformed frame, or that the
coordinator closed (a kill), is its shard's ``error`` reply at once, and the
run fails with a :class:`~repro.errors.NetworkError`; the next run
reconnects, respawning auto-spawned hosts that died.

Trust model: frames are **pickles**, and unpickling executes code, so a
shard host must only listen on localhost or inside a trusted network
segment.  Hosts run the same ``repro`` codebase as the coordinator; version
skew is not negotiated.
"""

from __future__ import annotations

import atexit
import copy
import os
import pickle
import select
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import deque
from typing import Sequence

from repro.errors import NetworkError, ReproError
from repro.faults.injector import NULL_INJECTOR
from repro.faults.recovery import retry_call
from repro.obs import get_logger
from repro.sharding.planner import ShardPlan
from repro.sharding.pool import (
    _WORKER_TIMEOUT,
    Replies,
    ShardPool,
    package_pythonpath,
)
from repro.sharding.worker import ShardWorker, ShardWorld

#: Hard bound on one frame's pickled payload.  Large enough for a shipped
#: world at the 1000+-node sweeps, small enough that a corrupt or hostile
#: length header cannot make the receiver allocate unbounded memory.
DEFAULT_MAX_FRAME = 256 * 1024 * 1024

#: The line a shard host prints (and flushes) once its listener is bound —
#: what :class:`LocalHostCluster` parses to learn an auto-assigned port.
HOST_ANNOUNCE = "shardhost listening on "

#: Seconds the spawn helper waits for a host subprocess to announce itself.
_SPAWN_TIMEOUT = 30.0

#: Seconds the coordinator allows for the TCP connect to one host.
_CONNECT_TIMEOUT = 10.0

_FRAME_HEADER = struct.Struct(">Q")

_log = get_logger("sockets")


def parse_address(address: str) -> tuple[str, int]:
    """Split ``"HOST:PORT"`` into a ``(host, port)`` pair."""
    host, separator, port_text = address.rpartition(":")
    if not separator or not host:
        raise ReproError(
            f"invalid shard-host address {address!r}; expected 'HOST:PORT'"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ReproError(f"invalid port in shard-host address {address!r}") from None
    return host, port


# -------------------------------------------------------------------- framing
#
# Wire format: an 8-byte big-endian length followed by that many bytes of
# pickle.  The receive side never trusts the header — an oversized length
# fails before any payload is read, and a connection that closes mid-frame is
# a distinct, diagnosable error (a crashed host, not a protocol bug).


class ConnectionClosed(NetworkError):
    """The peer closed the connection cleanly at a frame boundary."""


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes, surviving arbitrarily partial reads."""
    chunks: list[bytes] = []
    received = 0
    while received < count:
        try:
            chunk = sock.recv(min(count - received, 1 << 20))
        except TimeoutError:
            raise NetworkError(
                f"socket read timed out mid-frame ({received} of {count} "
                "bytes read); the peer appears wedged"
            ) from None
        except OSError as error:
            raise NetworkError(f"socket read failed: {error}") from None
        if not chunk:
            if not chunks:
                raise ConnectionClosed("connection closed")
            raise NetworkError(
                f"connection closed mid-frame ({received} of {count} bytes read)"
            )
        chunks.append(chunk)
        received += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket, *, max_frame: int = DEFAULT_MAX_FRAME):
    """Receive one length-prefixed pickled frame, blocking until it is whole."""
    (length,) = _FRAME_HEADER.unpack(_recv_exact(sock, _FRAME_HEADER.size))
    if length > max_frame:
        raise NetworkError(
            f"incoming frame of {length} bytes exceeds the {max_frame}-byte "
            "bound (max_frame); refusing to allocate"
        )
    try:
        payload = _recv_exact(sock, length)
    except ConnectionClosed:
        # The header arrived, so this is not a clean frame-boundary close:
        # diagnose it as the truncated frame it is.
        raise NetworkError(
            f"connection closed mid-frame (0 of {length} payload bytes read)"
        ) from None
    try:
        return pickle.loads(payload)
    except Exception as error:  # pickle raises a zoo of types
        raise NetworkError(f"could not unpickle a frame: {error}") from None


def _pickled(obj, max_frame: int) -> bytes:
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > max_frame:
        raise NetworkError(
            f"outgoing frame of {len(payload)} bytes exceeds the "
            f"{max_frame}-byte bound (max_frame)"
        )
    return payload


def send_frame(sock: socket.socket, obj, max_frame: int = DEFAULT_MAX_FRAME) -> None:
    """Send one frame, blocking until the socket took all of it."""
    payload = _pickled(obj, max_frame)
    try:
        # Two sendalls: no second full-size copy of a world-sized frame
        # just to put its header in front.
        sock.sendall(_FRAME_HEADER.pack(len(payload)))
        sock.sendall(payload)
    except OSError as error:
        raise NetworkError(f"socket write failed: {error}") from None


class _Wire:
    """The frames a shard host owes its coordinator, written only as the
    socket takes them: the host is the side of a link that queues."""

    def __init__(self, sock: socket.socket, max_frame: int):
        self._sock = sock
        self._max_frame = max_frame
        self._outgoing = bytearray()

    def queue(self, obj) -> None:
        try:
            payload = _pickled(obj, self._max_frame)
        except NetworkError as error:
            # A reply too big to frame must not become a silent stall: tell
            # the coordinator which shard's reply was dropped.
            shard = obj[1] if isinstance(obj[1], int) else -1
            reason = f"could not ship a {obj[0]!r} reply: {error}"
            payload = _pickled(("error", shard, reason), self._max_frame)
        self._outgoing += _FRAME_HEADER.pack(len(payload))
        self._outgoing += payload

    def poll(self, block: bool) -> bool:
        """Flush as the socket allows; return whether a frame is arriving
        (``block``: wait until one is).  A coordinator that takes none of our
        bytes for ``_WORKER_TIMEOUT`` is wedged."""
        while True:
            readable, writable, _ = select.select(
                [self._sock],
                [self._sock] if self._outgoing else [],
                [],
                (_WORKER_TIMEOUT if self._outgoing else None) if block else 0,
            )
            if writable:  # it takes some bytes now, maybe not all
                del self._outgoing[: self._sock.send(self._outgoing)]
            if readable or not block:
                return bool(readable)
            if not writable:
                raise NetworkError("the coordinator stopped reading")


# ------------------------------------------------------------- the host side


class HostChannel:
    """The channel to a shard on a host: its :class:`_HostLink` plus the
    shard's id, framing every command ``("to", shard, command)``."""

    def __init__(self, link, shard: int):
        self._link = link
        self._shard = shard

    def put(self, command: tuple) -> None:
        self._link.send(("to", self._shard, command))

    @property
    def alive(self) -> bool:
        return self._link.alive

    @property
    def reason(self) -> str:
        return self._link.exitcode or f"lost connection to {self._link.address}"

    def kill(self) -> None:
        # Severs the link; the host survives and loops back to ``accept``,
        # so the next (re)spawned pool can reconnect.
        self._link.close()

    def close(self) -> None:
        self._link.close()  # shared by the host's shards; closing is idempotent


class ShardHost:
    """A server process hosting shard workers for one coordinator at a time.

    The host accepts a TCP connection, builds one
    :class:`~repro.sharding.worker.ShardWorker` per world it receives, and
    steps them all on the thread serving the connection.  When the
    coordinator disconnects the machines are dropped and the host loops back
    to ``accept``, so a fleet of hosts serves many successive runs.
    """

    def __init__(
        self,
        bind: tuple[str, int] = ("127.0.0.1", 0),
        *,
        max_frame: int = DEFAULT_MAX_FRAME,
    ):
        self.max_frame = max_frame
        self._listener = socket.create_server(bind, backlog=4)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._shutdown = False
        self._conn: socket.socket | None = None

    @property
    def port(self) -> int:
        """The bound port (useful with ``--bind HOST:0``)."""
        return self.address[1]

    # -------------------------------------------------------------- lifecycle

    def serve_forever(self) -> None:
        """Accept and serve coordinators until :meth:`close` is called."""
        while not self._shutdown:
            try:
                conn, _peer = self._listener.accept()
            except OSError:
                break  # listener closed by close()
            try:
                # Replies are small frames too: no Nagle on this end either.
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # the coordinator reset before it was served
                conn.close()
                continue
            self._conn = conn
            try:
                self._serve_connection(conn)
            finally:
                self._conn = None
                try:
                    conn.close()
                except OSError:  # pragma: no cover - teardown race
                    pass

    def start(self) -> "ShardHost":
        """Serve in a daemon thread (in-process hosts for tests); call it once."""
        threading.Thread(target=self.serve_forever, daemon=True).start()
        return self

    def close(self) -> None:
        """Stop serving: close the listener and any live connection."""
        self._shutdown = True
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass
        conn = self._conn
        if conn is not None:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def __enter__(self) -> "ShardHost":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------ connection

    def _serve_connection(self, conn: socket.socket) -> None:
        """Serve one coordinator: every hosted machine on this one thread.

        Commands for a hosted shard and the frames co-hosted shards send
        each other wait in ``inbox``, in order; frames for shards on other
        hosts and the replies wait on the wire.  Machines step only after
        everything that arrived was read, and hand over their idle reports
        only once no machine on the host has work left.
        """
        # Timed: a coordinator wedged mid-frame cannot hold the host.
        conn.settimeout(_WORKER_TIMEOUT)
        wire = _Wire(conn, self.max_frame)
        workers: dict[int, ShardWorker] = {}
        inbox: deque[tuple[int, tuple]] = deque()

        def run(shard: int, action, *args):
            """One machine call; a failure is the shard's ``error`` reply."""
            try:
                return action(*args)
            except Exception:  # noqa: BLE001 - shipped to the coordinator
                workers.pop(shard, None)
                wire.queue(("error", shard, traceback.format_exc()))
                return None

        def send(frames) -> None:
            for frame in frames or ():
                if frame[1] in workers:
                    inbox.append(frame[1:])
                else:
                    wire.queue(frame)

        try:
            while True:
                busy = inbox or any(worker.busy for worker in workers.values())
                readable = wire.poll(block=False)
                if not (busy or readable):
                    for shard, worker in list(workers.items()):
                        report = run(shard, worker.idle)
                        if report is not None:
                            wire.queue(report)
                    readable = wire.poll(block=True)
                if readable:
                    frame = recv_frame(conn, max_frame=self.max_frame)
                    kind = frame[0]
                    if kind == "worlds":  # a re-ship replaces previous workers
                        worlds = frame[1]
                        workers.clear()
                        inbox.clear()
                        for world in worlds:
                            # Co-hosted machines would share (and mutate)
                            # one unpickled frame; a lone one needs no copy.
                            if len(worlds) > 1:
                                world = copy.deepcopy(world)
                            worker = run(world.shard_index, ShardWorker, world)
                            if worker is not None:
                                workers[world.shard_index] = worker
                                wire.queue(("ready", world.shard_index))
                    elif kind == "to":
                        _kind, shard, command = frame
                        if shard not in workers:
                            reason = f"{command[0]!r} command for a non-hosted shard"
                            wire.queue(("error", shard, reason))
                        elif command[0] == "stop":
                            del workers[shard]
                        else:
                            inbox.append((shard, command))
                    else:
                        wire.queue(("error", -1, f"unknown frame kind {kind!r}"))
                    continue  # read everything waiting before stepping
                while inbox:
                    shard, command = inbox.popleft()
                    if shard in workers:
                        send(run(shard, workers[shard].handle, command))
                for shard, worker in list(workers.items()):
                    if worker.busy:
                        send(run(shard, worker.step))
        except (TypeError, ValueError, IndexError, AttributeError) as error:
            # A well-pickled frame of the wrong *shape* (version skew, a
            # buggy client): report it and drop this coordinator — the host
            # must outlive any one client.
            wire.queue(("error", -1, f"malformed frame: {error}"))
        except (NetworkError, OSError):
            pass  # closed, reset, unframeable or wedged: drop the coordinator
        finally:
            try:
                wire.poll(block=False)  # a last error reply, if the socket takes it
            except OSError:
                pass


# ------------------------------------------------------- the coordinator side


class _HostLink:
    """One coordinator↔host connection: blocking framed sends behind the
    partition gate, and whole-frame reads for the pool's reply source
    (:class:`~repro.sharding.pool.Replies`, which waits on :meth:`fileno`)."""

    def __init__(self, address: str, max_frame: int, injector=NULL_INJECTOR):
        self.address = address
        self.closed = False
        #: Why a send failed, once one did.
        self.exitcode: str | None = None
        self.injector = injector
        self._max_frame = max_frame
        host, port = parse_address(address)
        try:
            self._sock = socket.create_connection(
                (host, port), timeout=_CONNECT_TIMEOUT
            )
        except OSError as error:
            raise NetworkError(
                f"cannot connect to shard host {address}: {error}"
            ) from None
        # Timed: a wedged host must bound sendall and mid-frame reads.
        self._sock.settimeout(_WORKER_TIMEOUT)
        # Frames are requests awaiting replies: send each at once rather
        # than hold a small one back for the peer's delayed ACK (Nagle).
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        _log.debug("connected to shard host %s", address)

    def fileno(self) -> int:
        return self._sock.fileno()

    def recv(self):
        """The next whole frame from the host."""
        return recv_frame(self._sock, max_frame=self._max_frame)

    @property
    def alive(self) -> bool:
        """False once closed, failed, or at EOF (a peek, not a read)."""
        if self.closed or self.exitcode is not None:
            return False
        try:
            readable, _, _ = select.select([self._sock], [], [], 0)
            return not readable or bool(self._sock.recv(1, socket.MSG_PEEK))
        except OSError:
            return False

    def send(self, obj) -> None:
        self._gated(lambda: self._send_raw(obj))

    def reach(self) -> None:
        """Raise unless a send could pass the partition gate now (no IPC)."""
        self._gated(lambda: None)

    def _gated(self, action) -> None:
        """``action`` behind the injector's partition gate and retry policy."""
        injector = self.injector
        if not injector.enabled:
            action()
            return

        def attempt() -> None:
            # A simulated partition blocks the write but leaves the TCP
            # connection intact, so it must not flip ``alive`` — raising
            # before the raw send keeps the two failure modes distinct.
            injector.check_partition(self.address)
            action()

        policy = injector.retry_policy
        if policy is None:
            attempt()
        else:
            retry_call(attempt, policy=policy, on_retry=injector.note_retry)

    def _send_raw(self, obj) -> None:
        try:
            send_frame(self._sock, obj, self._max_frame)
        except NetworkError as error:
            self.exitcode = str(error)
            raise

    def close(self) -> None:
        self.closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)  # FIN even if fds linger
        except OSError:
            pass  # peer already gone
        self._sock.close()


class SocketPool(ShardPool):
    """The pool whose workers live on shard hosts reached over TCP.

    Shards are assigned to hosts round-robin, each host receives its
    workers' worlds once, and one :class:`HostChannel` per shard carries the
    pool's commands over the host's link.  Closing the pool stops this
    coordinator's workers and drops the connections; the hosts themselves
    stay up and loop back to ``accept`` for the next coordinator.
    """

    def __init__(
        self,
        plan: ShardPlan,
        worlds: list[ShardWorld],
        hosts: Sequence[str],
        *,
        max_frame: int = DEFAULT_MAX_FRAME,
        injector=NULL_INJECTOR,
    ):
        if not hosts:
            raise ReproError("the socket pool needs at least one shard host")
        # Round-robin never reaches hosts past the shard count: don't dial
        # them (shard % len(hosts[:K]) == shard % len(hosts) for shard < K).
        self.hosts = tuple(hosts)[: plan.shard_count]
        self._max_frame = max_frame
        self._links: list[_HostLink] = []
        super().__init__(plan, worlds, injector=injector)

    def _open(self, worlds: list[ShardWorld]) -> None:
        try:
            for address in self.hosts:
                self._links.append(_HostLink(address, self._max_frame, self.injector))
        except BaseException:
            for link in self._links:  # no channel owns these yet
                link.close()
            raise
        self._channels = [
            HostChannel(self._links[shard % len(self._links)], shard)
            for shard in range(len(worlds))
        ]
        # A link's failure is charged to the first shard it hosts.
        names = [f"link to shard host {link.address}" for link in self._links]
        self._results = Replies(
            {link: (index, names[index]) for index, link in enumerate(self._links)},
            self._route,
        )
        for index, link in enumerate(self._links):
            hosted = worlds[index :: len(self._links)]  # round-robin
            link.send(("worlds", hosted))

    def _require_open(self) -> None:
        super()._require_open()
        for link in self._links:
            link.reach()

    def host_of(self, shard: int) -> str:
        """The host address a shard's worker runs on."""
        return self.hosts[shard % len(self.hosts)]

    def _route(self, target: int, command: tuple) -> tuple | None:
        """Relay one hosted worker's command to the host owning ``target``;
        a failed relay is ``target``'s error item (the run is doomed)."""
        channel = self._channels[target]
        try:
            channel.put(command)
        except NetworkError:
            return (
                "error",
                target,
                f"{channel.reason} while routing a cross-host message",
            )
        return None


# ------------------------------------------------------- localhost auto-spawn


class LocalHostCluster:
    """K localhost shard hosts as subprocesses (tests and CI need no cluster).

    Each host is ``python -m repro.shardhost --bind 127.0.0.1:0``; the
    OS-assigned port is read from the host's announce line.  The cluster can
    :meth:`ensure_alive` (respawning hosts that died — the *respawn* half of
    the reconnect-and-respawn story) and registers an ``atexit`` hook so
    stray host processes never outlive the coordinator.
    """

    def __init__(self, count: int, *, python: str | None = None):
        if count < 1:
            raise ReproError("a local host cluster needs at least one host")
        self._python = python or sys.executable
        self._processes: list[subprocess.Popen] = []
        self._stderr_files: dict[subprocess.Popen, object] = {}
        self.addresses: list[str] = []
        try:
            # Launch every host first (Popen returns immediately), then wait
            # for the announces: the interpreter start-ups overlap, so a
            # K-host cluster pays roughly one start-up, not K in sequence.
            for _ in range(count):
                self._processes.append(self._launch_one())
            for process in self._processes:
                self.addresses.append(self._read_announce(process))
        except BaseException:
            self.close()
            raise
        _log.debug("spawned %d local shard host(s): %s", count, self.addresses)
        atexit.register(self.close)

    def _launch_one(self) -> subprocess.Popen:
        env = dict(
            os.environ, PYTHONPATH=package_pythonpath(os.environ.get("PYTHONPATH"))
        )
        # stderr goes to an unnamed temp file, not a pipe: nobody drains the
        # host's stderr for its (long) lifetime, and a filled pipe buffer
        # would block the host mid-write — a stall with no visible cause.
        # The file keeps the output readable for spawn-failure diagnostics.
        stderr_file = tempfile.TemporaryFile(mode="w+")
        process = subprocess.Popen(
            [self._python, "-m", "repro.shardhost", "--bind", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            stderr=stderr_file,
            text=True,
            env=env,
        )
        self._stderr_files[process] = stderr_file
        return process

    def _read_announce(self, process: subprocess.Popen) -> str:
        line = ""
        deadline = time.monotonic() + _SPAWN_TIMEOUT
        while time.monotonic() < deadline:
            if process.poll() is not None:
                break
            ready, _, _ = select.select([process.stdout], [], [], 0.5)
            if ready:
                line = process.stdout.readline()
                break
        if not line.startswith(HOST_ANNOUNCE):
            stderr = ""
            stderr_file = self._stderr_files.get(process)
            try:
                process.kill()
                process.wait(timeout=5.0)
                if stderr_file is not None:
                    stderr_file.seek(0)
                    stderr = stderr_file.read()
            except (OSError, subprocess.TimeoutExpired):  # pragma: no cover
                pass
            raise NetworkError(
                "failed to spawn a local shard host "
                f"(announce was {line!r}): {stderr.strip()}"
            )
        return line[len(HOST_ANNOUNCE):].strip()

    @property
    def host_count(self) -> int:
        """Number of host processes in the cluster."""
        return len(self._processes)

    @property
    def alive(self) -> bool:
        """True while every host process is running."""
        return bool(self._processes) and all(
            process.poll() is None for process in self._processes
        )

    def ensure_alive(self) -> list[str]:
        """Respawn any host process that died; return the live addresses."""
        for index, process in enumerate(self._processes):
            if process.poll() is not None:
                _log.warning(
                    "local shard host %s died (exit %s); respawning",
                    self.addresses[index],
                    process.returncode,
                )
                self._reap(process)
                replacement = self._launch_one()
                self._processes[index] = replacement
                self.addresses[index] = self._read_announce(replacement)
        return list(self.addresses)

    def _reap(self, process: subprocess.Popen) -> None:
        if process.stdout is not None:
            process.stdout.close()
        stderr_file = self._stderr_files.pop(process, None)
        if stderr_file is not None:
            stderr_file.close()

    def close(self) -> None:
        """Terminate every host process (idempotent)."""
        atexit.unregister(self.close)
        processes, self._processes = self._processes, []
        self.addresses = []
        for process in processes:
            if process.poll() is None:
                process.terminate()
        for process in processes:
            try:
                process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck host
                process.kill()
                process.wait(timeout=1.0)
            self._reap(process)

    def __enter__(self) -> "LocalHostCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"LocalHostCluster({self.addresses!r})"
