"""The coordinator side of every process-backed engine: one pool of workers.

A one-shot process run pays a fixed price before the first message moves:
one process start (or host dial) per shard plus a pickle of the full
schema/rule world.  That is fine for one-shot sweeps and fatal for the
workloads the paper motivates — the same rule world updated again and again
as peers' data shifts.  So the workers are *persistent* (the loop in
:mod:`repro.sharding.worker`), and this module is the one driver for them:

* :class:`Channel` is how the coordinator talks to one shard's worker:
  ``put(command)``, ``alive`` (+ ``reason`` when not), ``kill()``,
  ``close()``.  Replies never come back through a channel — every worker
  answers on the pool's single results queue.  There are exactly two
  implementations: :class:`ProcessChannel` (a local OS process and its
  inbox queue) here, and :class:`~repro.sharding.sockets.HostChannel` (a
  TCP link to a shard host plus the shard's id).
* :class:`ShardPool` owns everything above the channels: awaiting replies
  with crashed-worker detection, the quiescence barrier, the delta
  :meth:`~ShardPool.sync`, :meth:`~ShardPool.run_phase`, re-plan
  invalidation and the :class:`WorldMirror` bookkeeping.  Successive runs
  move only **deltas**, in both directions: out go the rows inserted into
  the coordinator since the last run, relations whose contents were
  rewritten, and ``addLink``/``deleteLink`` rule changes, each shard's
  slice riding on its ``start``; home come the rows each shard gained,
  riding on its idle reports — never the schemas or the unchanged data.
  Both directions are one :class:`~repro.coordination.changeset.Change`,
  read structurally off the relations written since, against marks on them
  (:meth:`Change.read <repro.coordination.changeset.Change.read>`: a
  relation reports its own writes, so no caller can forget to), at a cost
  proportional to the change, not to the world.
* :class:`WorkerPool` and :class:`~repro.sharding.sockets.SocketPool` are
  reduced to how their channels are made: start one process per shard, or
  dial a host fleet and ship it the worlds.  :func:`_worker_context` decides
  how a process starts: forked from a server that imported the worker's
  modules once, so a worker costs a fork and an unpickle, not an interpreter
  boot and a re-import of the package.

A warm run is one command out per shard and the idle reports home.  Each
worker keeps a cumulative ledger ``(cross-sent per shard, cross-received)``
and, whenever it runs out of work after a ``start`` or a cross-shard
message, reports unasked: the run id of its latest ``start``, the ledger,
and what it gained since its previous report.  Once every shard's latest
report belongs to this run and the ledgers balance (``sent == received``
for every shard), the network is quiescent — every report was taken by a
passive worker, so no confirming wave is needed
(:meth:`ShardPool._await_quiescence` has the argument).  The coordinator
blocks on the results queue throughout — no sleep, no polling.

Per-run accounting: a report ships the deliveries, counters and spans since
the worker's previous report, so the reports of one run add up to the
per-run numbers a cold run would report — merge, traffic stats and the
regression gates read identically over both.  The ledgers are never reset,
and worker virtual clocks are not either: like the simulator's persistent
clock, simulated completion times stay monotone across consecutive runs.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Protocol

from repro.coordination.changeset import Change, RelationMarks, rules_fingerprint
from repro.coordination.rule import NodeId
from repro.errors import NetworkError, ReproError
from repro.faults.injector import NULL_INJECTOR, injector_of
from repro.obs import NULL_TRACER, get_logger
from repro.sharding.planner import ShardPlan, ShardPlanner
from repro.sharding.worker import (
    ShardWorld,
    _worlds_from_system,
    shard_worker_loop,
)

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
#: :class:`ShardWorld` unpickles into and :func:`shard_worker_loop` runs on.
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


# ------------------------------------------------------------------- deltas


class WorldMirror:
    """What a pool's workers hold, as marks on the coordinator's own relations.

    Per relation the mirror keeps the :meth:`Relation.mark
    <repro.database.relation.Relation.mark>` taken when coordinator and
    workers last agreed on it — at spawn, after every sync, after every
    merge — plus the rule texts the workers run and the registry version
    they were read at.  What a warm run must re-ship is then whatever the
    relations written since hold beyond their marks, and the rule texts are
    compared only when the version moved.
    """

    def __init__(self, system: P2PSystem):
        self.version = system.registry.version
        self.rules: dict[str, str] = rules_fingerprint(system.registry)
        self.marks = RelationMarks(system)

    def mark(self, system: P2PSystem) -> None:
        """Record that the workers hold the coordinator's current facts."""
        self.marks.mark(system)

    def rules_changed(self, system: P2PSystem) -> bool:
        """Whether the rule set differs from the one the workers run."""
        registry = system.registry
        return registry.version != self.version and (
            rules_fingerprint(registry) != self.rules
        )

    def advance(self, system: P2PSystem) -> Change:
        """What changed in the coordinator since the marks were taken
        (:meth:`Change.read` plus the rule edits), with the marks moved up.

        Structural by construction: whatever mutated the system —
        ``load_data``, ``addLink``/``deleteLink``, a direct relation write —
        shows up, because a relation reports its own writes and the registry
        its own version; there is no notification for a caller to forget.
        """
        change = Change.read(system, self.marks)
        registry = system.registry
        if registry.version == self.version:
            return change
        known, self.rules = self.rules, rules_fingerprint(registry)
        self.version = registry.version
        return replace(
            change,
            add_rules=tuple(
                rule for rule in registry if known.get(rule.rule_id) != rule.text
            ),
            remove_rules=tuple(
                rule_id
                for rule_id, text in known.items()
                if self.rules.get(rule_id) != text
            ),
        )


# ----------------------------------------------------------------- channels


class Channel(Protocol):
    """How the coordinator talks to one shard's worker.

    Commands go in through :meth:`put`; replies come back on the owning
    pool's results queue, never through the channel.
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
    """The channel to a shard-worker process on this machine: its inbox queue."""

    def __init__(self, process, inbox):
        self.process = process
        self._inbox = inbox

    def put(self, command: tuple) -> None:
        self._inbox.put(command)

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    @property
    def reason(self) -> str:
        return f"exit code {self.process.exitcode}"

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5.0)

    def close(self) -> None:
        # A process that never started (a spawn that failed part-way) has
        # nothing to join.
        if self.process.pid is not None:
            self.process.join(timeout=5.0)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=1.0)
        self._inbox.close()
        self._inbox.cancel_join_thread()


# ------------------------------------------------------------------ the pool


class ShardPool:
    """K persistent shard workers behind per-shard channels.

    Spawn with :meth:`spawn` (ships each worker its world once), then call
    :meth:`sync` + :meth:`run_phase` per run.  The pool keeps marks on the
    coordinator's relations of what its workers hold, so :meth:`sync` reads
    only what changed in the coordinator since.  Any failure — a crashed
    worker, a dead host, a stall, an exceeded message bound — closes the
    pool; the engine respawns a fresh one on the next run.  Subclasses
    provide :meth:`_open`, which sets the results queue and one
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
        # Each shard's peers: what a sync slices the change by.
        self._members = [frozenset(plan.members(s)) for s in range(plan.shard_count)]
        self.closed = False
        #: Fault injector firing kill faults at this pool's phase hook points
        #: (the null injector keeps every hook a no-op on fault-free runs).
        self.injector = injector
        self._max_messages = worlds[0].max_messages if worlds else 1_000_000
        #: The current run's id, stamped on its ``start`` and on every report
        #: a worker takes after that ``start``.
        self._run = 0
        #: Set by :meth:`spawn`: marks need the system the worlds came from.
        self._mirror: WorldMirror | None = None
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
        mirror = WorldMirror(system)
        pool = cls(
            plan,
            _worlds_from_system(system, plan),
            *args,
            injector=injector_of(system),
            **kwargs,
        )
        pool._mirror = mirror
        return pool

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
        """The next item on the results queue, or None after an idle second.

        An ``error`` item raises; so does a dead channel among the shards
        whose reply is still ``outstanding`` once a second passes with no
        item (a worker that already answered may be gone legitimately).
        ``deadline`` only caps the wait — the caller decides what running
        out of time means.
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

    # --------------------------------------------------------------- re-plan

    def plan_if_stale(
        self, system: P2PSystem, planner: ShardPlanner
    ) -> ShardPlan | None:
        """Re-plan after a rule-graph change; a moved peer invalidates the pool.

        Returns ``None`` while the rule graph is unchanged *or* the fresh plan
        keeps every peer on its current shard (then :meth:`sync` ships the
        rule delta to the warm workers); returns the fresh plan when any peer
        would move — the caller must close this pool and spawn a new one over
        the new partition, because data slices live in worker memory.
        """
        if not self._mirror.rules_changed(system):
            return None
        fresh = planner.plan_system(system)
        if dict(fresh.shard_of) == dict(self.plan.shard_of):
            return None
        return fresh

    # ------------------------------------------------------------------ runs

    def sync(self, system: P2PSystem) -> Change:
        """Read the coordinator's changes since the last run.

        Returns the change — rule changes and rows, empty when nothing
        moved.  The mirror counts it as shipped, so the next
        :meth:`run_phase` must carry it: each worker's ``start`` brings its
        own shard's slice.
        """
        self._require_open()
        delta = self._mirror.advance(system)
        # A sync-phase kill lands here: the dead worker is detected by the
        # next run_phase's liveness check, never by a wedged barrier.
        self.injector.fire("sync", self)
        return delta

    def run_phase(
        self,
        phase: str,
        origins: Iterable[NodeId] | None,
        *,
        change: Change | None = None,
        tracer=None,
        mode: str | None = None,
    ) -> list[dict]:
        """Drive one phase over the warm workers and return their payloads.

        Every worker's ``start`` carries its slice of ``change`` (what
        :meth:`sync` returned) and the owned origins (``None``: every peer);
        the workers' idle reports carry home what each shard gained, and
        the run ends when they certify quiescence.  Once the caller has
        merged the payloads it calls :meth:`note_merged`.
        ``mode="incremental"`` asks the workers for the delta-driven update
        path; each worker double-checks eligibility against its own
        accumulated changes and falls back to naive when they disagree.
        Any error closes the pool — a half-synced pool must never serve
        another run.
        """
        tracer = tracer if tracer is not None else NULL_TRACER
        try:
            self._require_open()
            self._run += 1
            origins = None if origins is None else tuple(origins)
            for shard, channel in enumerate(self._channels):
                sliced = None if change is None else change.only(self._members[shard])
                if sliced is not None and sliced.empty:
                    sliced = None
                channel.put(("start", self._run, phase, origins, mode, sliced))
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

    def note_merged(self, system: P2PSystem) -> None:
        """Record that ``system`` now holds what the workers shipped home.

        Without it the next :meth:`sync` would ship every merged row back.
        """
        self._mirror.mark(system)

    def __repr__(self) -> str:
        state = "closed" if self.closed else ("alive" if self.alive else "dead")
        return f"{type(self).__name__}({self.shard_count} shards, {state})"


class WorkerPool(ShardPool):
    """The pool whose workers are OS processes on this machine.

    Workers are daemons forked from the fork server (:func:`_worker_context`)
    — its children, not the coordinator's.  They and the server still die
    with the coordinator process, but an explicit :meth:`close` is what
    benchmarks and long-lived services should do.
    """

    def _open(self, worlds: list[ShardWorld]) -> None:
        context = _worker_context()
        inboxes = [context.Queue() for _ in worlds]
        self._results = context.Queue()
        self._workers = [
            context.Process(
                target=shard_worker_loop,
                args=(world, inboxes, self._results),
                daemon=True,
            )
            for world in worlds
        ]
        # Channels exist before any process starts, so a start that fails
        # part-way is still reaped by close().
        self._channels = [
            ProcessChannel(worker, inbox)
            for worker, inbox in zip(self._workers, inboxes)
        ]
        for worker in self._workers:
            worker.start()

    @property
    def worker_pids(self) -> tuple[int | None, ...]:
        """The workers' process ids (stable across warm runs by design)."""
        return tuple(worker.pid for worker in self._workers)

    def close(self) -> None:
        if self.closed:
            return
        super().close()
        if self._results is not None:
            self._results.close()
            self._results.cancel_join_thread()
