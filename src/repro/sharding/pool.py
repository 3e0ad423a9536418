"""The coordinator side of every process-backed engine: one pool of workers.

Bringing workers up pays a fixed price before the first message moves: one
process start (or host dial) per shard plus a pickle of the full
schema/rule world.  Paying it on every run would be fatal for the workloads
the paper motivates — the same rule world updated again and again as peers'
data shifts.  So the workers are *persistent*
(:class:`~repro.sharding.worker.ShardWorker` machines), and this module is
the one driver for them:

* :class:`Channel` is how the coordinator talks to one shard's worker:
  ``put(command)``, ``alive`` (+ ``reason`` when not), ``kill()``,
  ``close()``.  There are exactly two: :class:`ProcessChannel` (a local OS
  process and our end of its pipe) here, and
  :class:`~repro.sharding.sockets.HostChannel` (a TCP link to a shard host
  plus the shard's id).
* :class:`Replies` is the one reply source of both pools: every pipe or
  host link read through one :func:`multiprocessing.connection.wait`, a
  lost end turned into its shard's ``error`` at once, and a hosted worker's
  message for another host relayed inline.
* :class:`ShardPool` owns everything above them: awaiting replies, the
  quiescence barrier and :meth:`~ShardPool.run_phase`.  A pool keeps the
  plan it was spawned with for life: a rule edit rides the change like a
  row does.  Runs move only **deltas**, both ways, each one
  :class:`~repro.coordination.changeset.Change` read off the relations
  written since their marks (:meth:`Change.read
  <repro.coordination.changeset.Change.read>`): out, the change the session
  read at the run's start rides on every ``start``; home, the rows each
  shard gained ride on its idle reports — never the schemas or unchanged
  data.
* :class:`WorkerPool` and :class:`~repro.sharding.sockets.SocketPool` are
  reduced to how their channels are made: start one process per shard
  (forked from a server that imported the worker's modules once:
  :func:`_worker_context`), or dial a host fleet and ship it the worlds.

A warm run is one command out per shard and the idle reports home.  Each
worker keeps a cumulative ledger ``(cross-sent per shard, cross-received)``
and, whenever it runs out of work after a ``start`` or a cross-shard
message, reports unasked: the run id of its latest ``start``, the ledger,
and what it gained since.  Once every shard's latest report belongs to this
run and the ledgers balance, the network is quiescent
(:meth:`ShardPool._await_quiescence` has the argument).  The coordinator
blocks on its reply source throughout — no sleep, no polling.  The reports
of one run add up to the per-run numbers a cold run reports; ledgers and
worker clocks are never reset, so simulated completion times stay monotone
across runs, like the simulator's persistent clock.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import threading
import time
import traceback
from collections import deque
from multiprocessing import connection
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Protocol

from repro.coordination.changeset import Change
from repro.coordination.rule import NodeId
from repro.errors import NetworkError, ReproError
from repro.faults.injector import NULL_INJECTOR, injector_of
from repro.obs import NULL_TRACER, get_logger
from repro.sharding.planner import ShardPlan
from repro.sharding.worker import ShardWorker, ShardWorld, _worlds_from_system

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.core.system import P2PSystem

#: Seconds the coordinator waits for a worker to come up / answer before the
#: run is declared stuck.  Generous: the first pool of a process boots the
#: fork server, and on the spawn fallback every worker re-imports the package.
#: This is a *stall* bound, not a run budget — the quiescence barrier resets
#: it whenever the counters show progress, so long phases are fine as long as
#: deliveries keep happening.
_WORKER_TIMEOUT = 120.0

#: What the fork server imports before it forks a worker: the modules a
#: :class:`ShardWorld` unpickles into and :class:`ShardWorker` runs on.
_PRELOAD = ["repro.sharding.worker", "repro.core.system"]
_context_lock = threading.Lock()

_log = get_logger("pool")


def package_pythonpath(existing: str | None) -> str:
    """``PYTHONPATH`` for a child interpreter that must import this package."""
    package_root = str(Path(__file__).resolve().parents[2])
    return os.pathsep.join(filter(None, (package_root, existing)))


def _worker_context():
    """The ``multiprocessing`` context every :class:`WorkerPool` starts from.

    Chosen from the platform, never from an option: ``forkserver`` wherever
    it exists, ``spawn`` where it does not (Windows).  The server is one
    long-lived, single-threaded process per coordinator process, started by
    the first pool and reused by every later one.
    """
    if "forkserver" not in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("spawn")
    # Imported here: half a MiB that processes without a pool never need.
    from multiprocessing import forkserver

    context = multiprocessing.get_context("forkserver")
    # CPython 3.11's server ignores the sys.path it is sent and swallows the
    # preload's ImportError, so a package reachable only through sys.path
    # would fork unloaded workers — silently, at spawn speed.  PYTHONPATH
    # does reach the server: set around its start (a no-op while it runs).
    with _context_lock:
        context.set_forkserver_preload(_PRELOAD)
        existing = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = package_pythonpath(existing)
        try:
            forkserver.ensure_running()
        finally:
            if existing is None:
                del os.environ["PYTHONPATH"]
            else:
                os.environ["PYTHONPATH"] = existing
    return context


# ----------------------------------------------------------------- channels


class Channel(Protocol):
    """How the coordinator talks to one shard's worker.

    Commands go in through :meth:`put`; replies come back on the owning
    pool's reply source, never through the channel.
    """

    def put(self, command: tuple) -> None:
        """Deliver one worker command (``start`` / ``msg`` / ``stop``)."""

    @property
    def alive(self) -> bool:
        """False once the worker can no longer be reached."""

    @property
    def reason(self) -> str:
        """Why the channel is not alive (for the crash diagnosis)."""

    def kill(self) -> None:
        """Take the worker down abruptly (the fault injector's primitive)."""

    def close(self) -> None:
        """Release the channel after the worker was told to ``stop``."""


class ProcessChannel:
    """The channel to a shard-worker process on this machine: our end of its pipe."""

    def __init__(self, process, conn):
        self.process = process
        self._conn = conn

    def put(self, command: tuple) -> None:
        try:
            self._conn.send(command)
        except OSError as error:  # EPIPE / ECONNRESET: the worker is gone
            raise NetworkError(f"shard worker unreachable: {error}") from None

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    @property
    def reason(self) -> str:
        return f"exit code {self.process.exitcode}"

    def kill(self) -> None:
        self.process.terminate()  # a no-op on a process that already exited
        self.process.join(timeout=5.0)

    def close(self) -> None:
        self._conn.close()  # first: a worker blocked sending a report fails
        # A process whose start failed part-way has no pid to join.
        if self.process.pid is not None:
            self.process.join(timeout=5.0)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=1.0)


class Replies:
    """Every worker's replies as one source with a queue's ``get(timeout)``.

    ``ends`` maps each end replies arrive on (a pipe, a host link) to the
    shard its failure is charged to and the name the error gives it.  An
    end that reads EOF, a reset or a malformed frame, or that we closed, is
    that shard's ``error`` at once.  A ``("to", shard, command)`` frame goes
    to ``relay`` inline, which returns None or the item its failure is.
    """

    def __init__(self, ends: dict, relay=None):
        self._ends = ends
        self._relay = relay
        self._ready: deque[tuple] = deque()

    def get(self, timeout: float) -> tuple:
        deadline = time.monotonic() + timeout
        while not self._ready:
            for end in [end for end in self._ends if end.closed]:
                self._fail(end, "closed by the coordinator")
            if self._ready:
                break
            ready = connection.wait(
                list(self._ends), max(0.0, deadline - time.monotonic())
            )
            if not ready:
                raise queue_module.Empty
            for end in ready:  # one item from each ready end: none starves
                try:
                    item = end.recv()
                    if item[0] == "to":
                        _kind, shard, command = item
                        item = self._relay(shard, command)
                except (EOFError, OSError, NetworkError) as error:
                    self._fail(end, repr(error))
                except (TypeError, ValueError, IndexError, KeyError) as error:
                    self._fail(end, f"malformed frame: {error!r}")
                else:
                    if item is not None:
                        self._ready.append(item)
        return self._ready.popleft()

    def _fail(self, end, reason: str) -> None:
        shard, name = self._ends.pop(end)
        self._ready.append(("error", shard, f"{name} lost: {reason}"))


def _worker_process(world: ShardWorld, conn, mailboxes: list) -> None:
    """A :class:`WorkerPool` process: the shard's machine stepped between
    waits on its pipe and its mailbox, reporting only with nothing to read."""
    shard = world.shard_index
    mailbox = mailboxes[shard]
    sources = [conn, mailbox._reader]  # the queue's read end
    try:
        worker = ShardWorker(world)
        conn.send(("ready", shard))
        while True:
            ready = connection.wait(sources, 0)
            if not ready and worker.busy:
                frames = worker.step()
            else:
                if not ready:
                    report = worker.idle()
                    if report is not None:
                        conn.send(report)
                    ready = connection.wait(sources)
                # The mailbox's only reader: it holds an item when ready.
                item = conn.recv() if conn in ready else mailbox.get_nowait()
                if item[0] == "stop":
                    return
                frames = worker.handle(item)
            for _to, target, command in frames:
                mailboxes[target].put(command)
    except Exception:  # noqa: BLE001 - shipped to the coordinator
        try:
            conn.send(("error", shard, traceback.format_exc()))
        except OSError:
            pass  # the coordinator closed the pipe: nobody is left to tell


# ------------------------------------------------------------------ the pool


class ShardPool:
    """K persistent shard workers behind per-shard channels.

    Spawn with :meth:`spawn` (ships each worker its world once), then call
    :meth:`run_phase` per run with what changed in the coordinator since
    the previous one.  Any failure — a crashed worker, a dead host, a
    stall, an exceeded message bound — closes the pool; the engine
    respawns a fresh one on the next run.  Subclasses
    provide :meth:`_open`, which sets the reply source and one
    :class:`Channel` per shard.
    """

    def __init__(
        self, plan: ShardPlan, worlds: list[ShardWorld], *, injector=NULL_INJECTOR
    ):
        if len(worlds) != plan.shard_count:
            raise ReproError(
                f"the pool needs one world per shard: got {len(worlds)} "
                f"worlds for {plan.shard_count} shards"
            )
        self.plan = plan
        self.closed = False
        #: Fault injector firing kill faults at this pool's phase hook points
        #: (the null injector keeps every hook a no-op on fault-free runs).
        self.injector = injector
        self._max_messages = worlds[0].max_messages if worlds else 1_000_000
        #: The current run's id, stamped on its ``start`` and on every report
        #: a worker takes after that ``start``.
        self._run = 0
        self._results: Any = None
        self._channels: list[Channel] = []
        try:
            self._open(worlds)
            self._await_ready()
        except BaseException:
            self.close()
            raise

    def _open(self, worlds: list[ShardWorld]) -> None:
        """Set ``_results`` and ``_channels`` and get the workers building."""
        raise NotImplementedError  # pragma: no cover - subclass contract

    @classmethod
    def spawn(cls, system: P2PSystem, plan: ShardPlan, *args, **kwargs):
        """Bring a pool up over the live system's current state."""
        return cls(
            plan,
            _worlds_from_system(system, plan),
            *args,
            injector=injector_of(system),
            **kwargs,
        )

    # ---------------------------------------------------------------- status

    @property
    def shard_count(self) -> int:
        """Number of shard workers."""
        return self.plan.shard_count

    @property
    def alive(self) -> bool:
        """True while the pool is open and every worker can be reached."""
        return not self.closed and all(channel.alive for channel in self._channels)

    def kill_worker(self, shard: int) -> None:
        """Take one shard's worker down (the fault injector's kill primitive)."""
        self._channels[shard].kill()

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Stop the workers and release the channels (idempotent)."""
        if self.closed:
            return
        self.closed = True
        # Every worker is told to stop before any is waited for, so they
        # wind down in parallel.
        for channel in self._channels:
            if channel.alive:
                try:
                    channel.put(("stop",))
                except (OSError, ValueError, NetworkError):
                    pass  # the worker went away first, or its host is cut off
        for channel in self._channels:
            channel.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _require_open(self) -> None:
        if self.closed:
            raise ReproError("the pool is closed")
        for shard, channel in enumerate(self._channels):
            if not channel.alive:
                raise NetworkError(
                    f"shard {shard} worker is gone ({channel.reason}); "
                    "the pool must be respawned"
                )

    # ---------------------------------------------------------------- awaits

    def _next_reply(self, deadline: float, outstanding: Iterable[int]) -> tuple | None:
        """The next item from the reply source, or None after an idle second.

        An ``error`` item raises — the reply source turns a lost pipe or link
        into one at once.  As a backstop, so does a dead channel among the
        shards whose reply is still ``outstanding`` once a second passes with
        no item.  ``deadline`` only caps the wait.
        """
        try:
            item = self._results.get(
                timeout=max(0.0, min(deadline - time.monotonic(), 1.0))
            )
        except queue_module.Empty:
            for shard in outstanding:
                channel = self._channels[shard]
                if not channel.alive:
                    raise NetworkError(
                        f"shard {shard} worker died unexpectedly ({channel.reason})"
                    ) from None
            return None
        if item[0] == "error":
            raise NetworkError(f"shard {item[1]} worker failed:\n{item[2]}")
        return item

    def _await_ready(self) -> None:
        """Wait for every worker's ``ready`` (raising on errors and crashes)."""
        ready: set[int] = set()
        deadline = time.monotonic() + _WORKER_TIMEOUT
        while len(ready) < self.shard_count:
            if time.monotonic() >= deadline:
                raise NetworkError(
                    f"timed out waiting for {self.shard_count - len(ready)} "
                    "shard worker(s) to report 'ready'"
                )
            item = self._next_reply(
                deadline,
                [shard for shard in range(self.shard_count) if shard not in ready],
            )
            if item is not None and item[0] == "ready":
                ready.add(item[1])

    def _await_quiescence(self) -> list[dict]:
        """Block until this run's idle reports prove termination.

        A worker reports, unasked, each time it runs out of work after a
        ``start`` or a ``msg``: the id of the latest run it started, its
        cumulative cross-shard ledger, and a payload.  The barrier certifies
        once every shard's latest report is tagged with this run and the
        ledgers balance — each shard received exactly what the others say
        they sent it.  That is sound because:

        1. A report is taken only while its worker is passive (its local
           queue and inbox are empty), and a report tagged with this run only
           after the worker processed this run's ``start``.
        2. Between runs nothing but a ``msg`` re-activates a passive worker:
           the coordinator's change rides on the ``start``.
        3. Suppose a worker were active after its report, and take the
           earliest such re-activation.
        4. It needs a message counted as sent but not yet received.
        5. A per-receiver balance can offset that message only with one
           counted as received but sent after its sender's report — and that
           sender was active after its report even earlier, contradicting 3.

        A report tagged with an earlier run (a worker that has not taken this
        run's ``start`` yet) balances nothing, but its payload is this run's
        work all the same.  The ledgers are never reset, so no run has to
        wait for another's counters to settle.

        The stall deadline restarts whenever deliveries are reported: a long
        phase that keeps delivering is healthy however long it takes; only
        ``_WORKER_TIMEOUT`` seconds with *no* progress is a failure.  The
        message bound is per run: this run's reports' deliveries.

        Returns every report's payload, in arrival order.
        """
        ledgers: dict[int, tuple] = {}
        payloads: list[dict] = []
        delivered = 0
        deadline = time.monotonic() + _WORKER_TIMEOUT
        while True:
            if time.monotonic() >= deadline:
                raise NetworkError(
                    "the run stalled: no delivery progress for "
                    f"{_WORKER_TIMEOUT:.0f}s without reaching quiescence"
                )
            item = self._next_reply(deadline, range(self.shard_count))
            if item is None or item[0] != "report":
                continue
            _kind, shard, run, ledger, payload = item
            payloads.append(payload)
            if run == self._run:
                ledgers[shard] = ledger
            if payload["delivered"]:
                delivered += payload["delivered"]
                if delivered > self._max_messages:
                    raise NetworkError(
                        f"exceeded {self._max_messages} deliveries across "
                        "shards; the protocol does not appear to terminate"
                    )
                deadline = time.monotonic() + _WORKER_TIMEOUT
            if len(ledgers) == self.shard_count and self._balanced(ledgers):
                _log.debug(
                    "quiescence certified after %d report(s), %d delivered",
                    len(payloads),
                    delivered,
                )
                return payloads

    @staticmethod
    def _balanced(ledgers: dict[int, tuple]) -> bool:
        """Each shard received exactly what the others sent it."""
        return all(
            sum(sent[shard] for sent, _received in ledgers.values()) == received
            for shard, (_sent, received) in ledgers.items()
        )

    # ------------------------------------------------------------------ runs

    def run_phase(
        self,
        phase: str,
        origins: Iterable[NodeId] | None,
        *,
        change: Change | None = None,
        tracer=None,
    ) -> list[dict]:
        """Drive one phase over the warm workers and return their payloads.

        Every worker's ``start`` carries ``change`` (what changed in the
        coordinator since the previous run; ``None`` when nothing did) and
        the origins (``None``: every peer).  Each worker applies its own
        peers' slice of the change and decides the path with
        :func:`~repro.api.engine.start_run` on the whole of it, so the
        workers decide alike.  The run ends when the
        idle reports certify quiescence.  Any error closes the pool — a
        half-synced pool must never serve another run.
        """
        tracer = tracer if tracer is not None else NULL_TRACER
        try:
            if self.closed:  # a dead worker fails its ``start`` send
                raise ReproError("the pool is closed")
            self._run += 1
            origins = None if origins is None else tuple(origins)
            if change is not None and change.empty:
                change = None
            for channel in self._channels:
                channel.put(("start", self._run, phase, origins, change))
            self.injector.fire("chase", self)
            with tracer.span("quiescence") as quiescence_span:
                payloads = self._await_quiescence()
                quiescence_span.set(reports=len(payloads))
            self.injector.fire("quiescence", self)
            # Nothing goes out after the barrier, so a kill or a partition
            # fired at the hook must fail the run here.
            self._require_open()
        except BaseException:
            self.close()
            raise
        return payloads

    def __repr__(self) -> str:
        state = "closed" if self.closed else ("alive" if self.alive else "dead")
        return f"{type(self).__name__}({self.shard_count} shards, {state})"


class WorkerPool(ShardPool):
    """The pool whose workers are OS processes on this machine.

    Workers are daemons, children of the fork server
    (:func:`_worker_context`); they die with the coordinator, but benchmarks
    and services should :meth:`close` them.  One duplex pipe per worker
    carries ``start`` / ``stop`` down and reports up; worker↔worker ``msg``s
    use queue mailboxes, as a pipe send could block mid-drain.  Pipes cannot
    deadlock: the coordinator writes only ``start``s and ``stop``s, while
    every worker is passive and reading, and workers write only reports,
    which the coordinator reads until the barrier certifies.  Pitfalls: our
    copy of a worker's end is closed once it started, or its death never
    reads as EOF; liveness is ``is_alive()``, not a sentinel wait (once
    ``join()`` read a fork-server worker's status, its sentinel can read
    "not ready" until the server closes it); and :meth:`close` closes our
    ends before it joins, so a worker blocked sending gets EPIPE.
    """

    def _open(self, worlds: list[ShardWorld]) -> None:
        context = _worker_context()
        # Kept as long as the pool: collecting a queue unlinks its
        # semaphores, which a worker may not have unpickled yet.
        self._mailboxes = [context.Queue() for _ in worlds]
        pipes = [context.Pipe() for _ in worlds]
        self._workers = [
            context.Process(
                target=_worker_process,
                args=(world, theirs, self._mailboxes),
                daemon=True,
            )
            for world, (_ours, theirs) in zip(worlds, pipes)
        ]
        # Channels exist before any process starts, so a start that fails
        # part-way is still reaped by close().
        self._channels = [
            ProcessChannel(worker, ours)
            for worker, (ours, _theirs) in zip(self._workers, pipes)
        ]
        self._results = Replies(
            {ours: (shard, "pipe") for shard, (ours, _theirs) in enumerate(pipes)}
        )
        try:
            for worker in self._workers:
                worker.start()
        finally:
            for _ours, theirs in pipes:
                theirs.close()

    @property
    def worker_pids(self) -> tuple[int | None, ...]:
        """The workers' process ids (stable across warm runs by design)."""
        return tuple(worker.pid for worker in self._workers)
