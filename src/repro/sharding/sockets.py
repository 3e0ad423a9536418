"""Socket-backed shard hosts: the process-backed engines across machines.

Spawned worker processes confine all K shards to one box's cores, which caps
the sweeps near 1023 nodes.  The paper's coordination model is inherently
distributed (peers on different machines exchanging update messages), and
the pool's delta-sync protocol and cumulative-counter quiescence barrier are
already transport-shaped for the wire.  This module puts them on it:

* :class:`ShardHost` is a standalone server process
  (``python -m repro.shardhost --bind HOST:PORT``) that can run anywhere and
  hosts one or more shard workers — the one worker loop,
  :func:`repro.sharding.worker.shard_worker_loop`, run as threads inside the
  host process (one *process per host*, so a cluster of hosts is what buys
  multi-core/multi-machine parallelism).
* :class:`HostChannel` is the second (and last)
  :class:`~repro.sharding.pool.Channel` implementation: a link plus a shard
  id, framing every command as ``("to", shard, command)``.  The coordinator
  reaches each hosted worker through one; a hosted worker reaches a shard on
  *another* host through one too, and the coordinator relays the frame
  (hub-and-spoke: hosts never need to reach each other, only the coordinator
  needs to reach the hosts).  Workers co-hosted on one host exchange
  messages directly in memory.
* :class:`SocketPool` is the :class:`~repro.sharding.pool.ShardPool` whose
  channels are made by dialing a list of hosts over TCP and shipping each
  its pickled :class:`~repro.sharding.worker.ShardWorld`\\ s with
  length-prefixed framing; everything above the channels (delta sync, the
  barrier, collect) is the shared pool.
* :class:`LocalHostCluster` auto-spawns K localhost hosts as subprocesses, so
  tests, benchmarks and CI need no real cluster: a system built with
  ``transport="socket"`` and no ``hosts`` list gets one spawned on demand
  (and torn down by ``session.close()``).

Liveness mirrors the crashed-process handling: every await loop checks the
channels, a dead host surfaces as a :class:`~repro.errors.NetworkError`
(never a silent stall), and the next run reconnects — respawning
auto-spawned hosts that died.

Trust model: frames are **pickles**.  Unpickling executes code, so a shard
host must only ever listen on localhost or inside a trusted network segment —
the same deployment boundary as every pickle-based RPC (and as the
``multiprocessing`` spawn pipes this replaces).  Hosts also run the same
``repro`` codebase as the coordinator; version skew is not negotiated.
"""

from __future__ import annotations

import atexit
import copy
import os
import pickle
import queue as queue_module
import select
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from typing import Sequence

from repro.errors import NetworkError, ReproError
from repro.faults.injector import NULL_INJECTOR
from repro.faults.recovery import retry_call
from repro.obs import get_logger
from repro.sharding.planner import ShardPlan
from repro.sharding.pool import _WORKER_TIMEOUT, ShardPool, package_pythonpath
from repro.sharding.worker import ShardWorld, shard_worker_loop

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


class _IdleTimeout(Exception):
    """A timed read expired while *no* frame was in progress.

    Long-lived connections (a warm pool between runs, a host waiting for its
    coordinator's next command) legitimately idle for minutes; their readers
    catch this and keep waiting.  A timeout once any frame byte has arrived
    is never idle — that peer is wedged, and it surfaces as a
    :class:`~repro.errors.NetworkError` instead.
    """


def _recv_exact(sock: socket.socket, count: int, *, idle_ok: bool = False) -> bytes:
    """Read exactly ``count`` bytes, surviving arbitrarily partial reads."""
    chunks: list[bytes] = []
    received = 0
    while received < count:
        try:
            chunk = sock.recv(min(count - received, 1 << 20))
        except TimeoutError:
            if idle_ok and not chunks:
                raise _IdleTimeout() from None
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


def recv_frame(
    sock: socket.socket,
    *,
    max_frame: int = DEFAULT_MAX_FRAME,
    idle_ok: bool = False,
):
    """Receive one length-prefixed pickled frame.

    With ``idle_ok`` a read timeout *between* frames raises
    :class:`_IdleTimeout` (the caller's loop continues); once the header has
    started arriving, timeouts are hard errors like everywhere else.
    """
    header = _recv_exact(sock, _FRAME_HEADER.size, idle_ok=idle_ok)
    (length,) = _FRAME_HEADER.unpack(header)
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


class _FrameWriter:
    """Serialised frame sends over one socket (many threads, one writer lock)."""

    def __init__(self, sock: socket.socket, max_frame: int):
        self._sock = sock
        self._max_frame = max_frame
        self._lock = threading.Lock()

    def send(self, obj) -> None:
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        if len(payload) > self._max_frame:
            raise NetworkError(
                f"outgoing frame of {len(payload)} bytes exceeds the "
                f"{self._max_frame}-byte bound (max_frame)"
            )
        header = _FRAME_HEADER.pack(len(payload))
        try:
            # Two sendalls under the one lock: frame atomicity without
            # materialising header+payload (a second full-size copy of a
            # world-sized frame) just to concatenate.
            with self._lock:
                self._sock.sendall(header)
                self._sock.sendall(payload)
        except OSError as error:
            raise NetworkError(f"socket write failed: {error}") from None


# ------------------------------------------------------------- the host side


class HostChannel:
    """The channel to a shard across a link: the link plus the shard's id.

    Every command is framed ``("to", shard, command)``.  The coordinator's
    ``link`` is a :class:`_HostLink` to the host running the shard's worker;
    inside a host, ``link`` is the connection's frame writer and the
    channel is a worker's outbox for a shard living on another host (the
    coordinator relays the frame to the right host).
    """

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
        # Severs the connection; the host itself survives — its read loop
        # sees the close, stops its workers and loops back to ``accept`` —
        # so the next (re)spawned pool can reconnect, which is exactly the
        # crash-recovery path the fault suite exercises.
        self._link.close()

    def close(self) -> None:
        self._link.close()  # shared by the host's shards; closing is idempotent


def _host_worker(
    world: ShardWorld, outboxes: list, results, isolate: bool
) -> None:
    """One hosted shard worker: isolate the world, run the worker loop.

    Workers co-hosted on one host are threads sharing the unpickled
    ``worlds`` frame, but the worker loop mutates its world's schemas and
    databases — with ``isolate`` each thread gets a private deep copy,
    restoring the separation that distinct processes give the mp engines
    for free.  A host running a *single* worker skips the copy (nothing
    shares the world), which matters at large worlds: the default
    one-shard-per-host layout would otherwise hold every world twice.
    """
    try:
        if isolate:
            world = copy.deepcopy(world)
    except BaseException:  # noqa: BLE001 - shipped to the coordinator
        results.put(("error", world.shard_index, traceback.format_exc()))
        return
    shard_worker_loop(world, outboxes, results)


class ShardHost:
    """A server process hosting shard workers for one coordinator at a time.

    The host accepts a TCP connection, receives its workers' worlds, runs
    them as persistent threads (the same command loop the worker processes
    run), hands each ``("to", shard, command)`` frame to that shard's inbox,
    and forwards the workers' replies back over the wire.  When the
    coordinator disconnects the workers are stopped and the host loops back
    to ``accept``, ready for the next coordinator, so a fleet of hosts can
    serve many successive runs without respawning.
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
        self._thread: threading.Thread | None = None

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
        """Serve in a daemon thread (in-process hosts for tests)."""
        if self._thread is None:
            self._thread = threading.Thread(target=self.serve_forever, daemon=True)
            self._thread.start()
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
        # A timed socket bounds every blocking call: a wedged coordinator
        # (connected, not draining) cannot hold this host's writes forever.
        # Reads tolerate idling — the coordinator may sit quiet for minutes
        # between warm runs — via the _IdleTimeout continue below.
        conn.settimeout(_WORKER_TIMEOUT)
        writer = _FrameWriter(conn, self.max_frame)
        inboxes: dict[int, queue_module.Queue] = {}
        threads: list[threading.Thread] = []
        results: queue_module.Queue = queue_module.Queue()
        forwarder: threading.Thread | None = None
        stop_sentinel = object()

        def stop_workers() -> None:
            nonlocal forwarder
            for inbox in inboxes.values():
                inbox.put(("stop",))
            for thread in threads:
                thread.join(timeout=5.0)
            inboxes.clear()
            threads.clear()
            if forwarder is not None:
                results.put(stop_sentinel)
                forwarder.join(timeout=5.0)
                forwarder = None

        def forward_results() -> None:
            while True:
                item = results.get()
                if item is stop_sentinel:
                    return
                try:
                    writer.send(item)
                except NetworkError as error:
                    # A reply too big to frame must not become a silent
                    # stall: tell the coordinator which shard's reply was
                    # dropped (a tiny control frame) and keep forwarding —
                    # other workers' replies may still fit.  If even that
                    # fails the connection itself is gone; teardown follows
                    # via the recv loop.
                    shard = (
                        item[1]
                        if len(item) > 1 and isinstance(item[1], int)
                        else -1
                    )
                    try:
                        writer.send(
                            (
                                "error",
                                shard,
                                f"could not ship a {item[0]!r} reply: {error}",
                            )
                        )
                    except NetworkError:
                        return

        try:
            while True:
                try:
                    frame = recv_frame(conn, max_frame=self.max_frame, idle_ok=True)
                except _IdleTimeout:
                    continue  # a quiet coordinator is a healthy coordinator
                except ConnectionClosed:
                    return
                except NetworkError:
                    return  # unframeable input: drop the coordinator
                try:
                    kind = frame[0]
                    if kind == "worlds":
                        stop_workers()  # a re-ship replaces previous workers
                        total, worlds = frame[1], frame[2]
                        inboxes = {
                            world.shard_index: queue_module.Queue()
                            for world in worlds
                        }
                        outboxes = [
                            inboxes[shard]
                            if shard in inboxes
                            else HostChannel(writer, shard)
                            for shard in range(total)
                        ]
                        threads = [
                            threading.Thread(
                                target=_host_worker,
                                args=(world, outboxes, results, len(worlds) > 1),
                                daemon=True,
                            )
                            for world in worlds
                        ]
                        forwarder = threading.Thread(
                            target=forward_results, daemon=True
                        )
                        forwarder.start()
                        for thread in threads:
                            thread.start()
                    elif kind == "to":
                        _kind, shard, command = frame
                        inbox = inboxes.get(shard)
                        if inbox is None:
                            writer.send(
                                (
                                    "error",
                                    shard,
                                    f"{command[0]!r} command for a non-hosted shard",
                                )
                            )
                        else:
                            inbox.put(command)
                    else:
                        writer.send(("error", -1, f"unknown frame kind {kind!r}"))
                except (TypeError, ValueError, IndexError, AttributeError) as error:
                    # A well-pickled frame of the wrong *shape* (version
                    # skew, a buggy client): report it and drop this
                    # coordinator — the host must outlive any one client.
                    try:
                        writer.send(("error", -1, f"malformed frame: {error}"))
                    except NetworkError:
                        pass
                    return
                except NetworkError:
                    # An inline reply (a non-hosted-shard or unknown-kind
                    # error frame) failed to write: the coordinator is gone
                    # or wedged.  Drop it; the host must outlive any client.
                    return
        finally:
            stop_workers()


# ------------------------------------------------------- the coordinator side


class _HostLink:
    """One coordinator↔host connection: framed sends plus a reader thread.

    The reader hands ``("to", shard, command)`` frames — a hosted worker's
    message for a shard on another host — to the pool's router (the
    hub-and-spoke path) and funnels every other frame, the workers' replies,
    into the pool's results queue.  A closed or failing connection flips
    :attr:`alive`, which the liveness checks read through the channels.
    """

    def __init__(
        self, address: str, results, router, max_frame: int, injector=NULL_INJECTOR
    ):
        self.address = address
        self.alive = False
        self.exitcode: str | None = None
        self.injector = injector
        self._results = results
        self._router = router
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
        # Keep the socket timed: a wedged host (alive TCP, not reading or
        # not sending) must bound sendall and mid-frame reads instead of
        # blocking forever.  Idle reads between frames are tolerated in
        # _read_loop — a warm pool legitimately sits quiet between runs.
        self._sock.settimeout(_WORKER_TIMEOUT)
        # Frames are requests awaiting replies: send each at once rather
        # than hold a small one back for the peer's delayed ACK (Nagle).
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._writer = _FrameWriter(self._sock, max_frame)
        self.alive = True
        _log.debug("connected to shard host %s", address)
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()

    def _read_loop(self) -> None:
        try:
            while True:
                try:
                    frame = recv_frame(
                        self._sock, max_frame=self._max_frame, idle_ok=True
                    )
                except _IdleTimeout:
                    continue  # no frame in progress; keep listening
                try:
                    if frame[0] == "to":
                        self._router(frame[1], frame[2])
                    else:
                        self._results.put(frame)
                except (TypeError, IndexError, KeyError) as error:
                    # A well-pickled frame of the wrong shape (version skew,
                    # a buggy host) must read as a protocol failure on this
                    # link, not kill the reader with a bare traceback and a
                    # misleading "lost connection" diagnosis.
                    raise NetworkError(
                        f"malformed frame from shard host {self.address}: "
                        f"{error!r}"
                    ) from None
        except NetworkError as error:
            self.exitcode = str(error)
        finally:
            self.alive = False

    def send(self, obj) -> None:
        injector = self.injector
        if not injector.enabled:
            self._send_raw(obj)
            return

        def attempt() -> None:
            # A simulated partition blocks the write but leaves the TCP
            # connection intact, so it must not flip ``alive`` — raising
            # before the raw send keeps the two failure modes distinct.
            injector.check_partition(self.address)
            self._send_raw(obj)

        policy = injector.retry_policy
        if policy is None:
            attempt()
        else:
            retry_call(attempt, policy=policy, on_retry=injector.note_retry)

    def _send_raw(self, obj) -> None:
        try:
            self._writer.send(obj)
        except NetworkError:
            self.alive = False
            raise

    def close(self) -> None:
        self.alive = False
        # shutdown() first: close() alone does not send FIN (nor wake this
        # link's reader) while the reader thread is blocked in recv on the
        # same fd, which would leave the host serving a dead connection.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # peer already gone
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already closed
            pass


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
        if len(set(hosts)) != len(hosts):
            raise NetworkError(
                f"duplicate shard-host addresses in {tuple(hosts)}; list "
                "each host once (shards are assigned round-robin across them)"
            )
        # Round-robin assignment uses at most one host per shard, so hosts
        # past the shard count would never own a worker — don't dial them,
        # and never let an idle machine's restart fail a run.  (Trimming
        # preserves the mapping: shard % len(hosts[:K]) == shard % len(hosts)
        # for shard < K ≤ len(hosts).)
        self.hosts = tuple(hosts)[: plan.shard_count]
        self._max_frame = max_frame
        self._links: list[_HostLink] = []
        super().__init__(plan, worlds, injector=injector)

    def _open(self, worlds: list[ShardWorld]) -> None:
        self._results = queue_module.Queue()
        try:
            for address in self.hosts:
                self._links.append(
                    _HostLink(
                        address,
                        self._results,
                        self._route,
                        self._max_frame,
                        self.injector,
                    )
                )
        except BaseException:
            for link in self._links:  # no channel owns these yet
                link.close()
            raise
        self._channels = [
            HostChannel(self._links[shard % len(self._links)], shard)
            for shard in range(len(worlds))
        ]
        for host_index, link in enumerate(self._links):
            link.send(
                (
                    "worlds",
                    len(worlds),
                    [
                        world
                        for world in worlds
                        if world.shard_index % len(self._links) == host_index
                    ],
                )
            )

    def host_of(self, shard: int) -> str:
        """The host address a shard's worker runs on."""
        return self.hosts[shard % len(self.hosts)]

    def _route(self, target: int, command: tuple) -> None:
        """Relay one hosted worker's command to the host owning ``target``."""
        channel = self._channels[target]
        try:
            channel.put(command)
        except NetworkError:
            # The run is doomed; surface it through the results queue so the
            # await loops fail fast instead of stalling out the barrier.
            self._results.put(
                (
                    "error",
                    target,
                    f"{channel.reason} while routing a cross-host message",
                )
            )


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
