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
  with crashed-worker detection, the cumulative-counter quiescence barrier,
  delta :meth:`~ShardPool.sync`, :meth:`~ShardPool.run_phase`, re-plan
  invalidation and the :class:`WorldMirror` bookkeeping.  Successive runs
  move only **deltas**, in both directions: out go the rows inserted into
  the coordinator since the last run, relations whose contents were
  rewritten, and ``addLink``/``deleteLink`` rule changes; home come the
  rows each shard gained — never the schemas or the unchanged data.  The
  outgoing delta is read structurally, off the live relations against the
  mirror's marks on them (state is compared, not change notifications
  trusted), at a cost proportional to the change, not to the world.
* :class:`WorkerPool` and :class:`~repro.sharding.sockets.SocketPool` are
  reduced to how their channels are made: start one process per shard, or
  dial a host fleet and ship it the worlds.  :func:`_worker_context` decides
  how a process starts: forked from a server that imported the worker's
  modules once, so a worker costs a fork and an unpickle, not an interpreter
  boot and a re-import of the package.

Quiescence uses the classic cumulative-counter double check: the coordinator
pings every worker for ``(cross-sent per shard, cross-received, delivered)``;
when two consecutive rounds report identical counters, every worker idle, and
``sent == received`` for every shard, no message can still be in flight (a
straggler would leave some shard's ``sent`` above its ``received``), so the
network is quiescent.

Per-run accounting: each worker resets its delivery/cross-shard counters and
statistics after every ``collect``, so a warm run reports the same per-run
numbers a cold run would — merge, traffic stats and the regression gates
read identically over both.  Worker virtual clocks are *not* reset: like the
simulator's persistent clock, simulated completion times stay monotone
across consecutive runs.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Protocol

from repro.coordination.changeset import rules_fingerprint
from repro.coordination.rule import CoordinationRule, NodeId
from repro.database.relation import Mark, Row
from repro.errors import NetworkError, ReproError
from repro.faults.injector import NULL_INJECTOR, injector_of
from repro.obs import NULL_TRACER, get_logger
from repro.sharding.planner import ShardPlan, ShardPlanner
from repro.sharding.worker import (
    ShardWorld,
    _worlds_from_system,
    relation_marks,
    shard_worker_loop,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.core.system import P2PSystem

#: Seconds the coordinator waits for a worker to come up / answer before the
#: run is declared stuck.  Generous: the first pool of a process boots the
#: fork server, and on the spawn fallback every worker re-imports the package.
#: This is a *stall* bound, not a run budget — the quiescence loop resets it
#: whenever the counters show progress, so long phases are fine as long as
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


@dataclass(frozen=True)
class SyncDelta:
    """What changed in the coordinator since the workers last synced.

    ``inserts`` carries rows that only *appeared* in a relation (the common
    case: the chase and bulk loads insert, never delete), ``replaces``
    rewrites a relation wholesale — used when rows vanished, or when the
    relation itself is new to the workers (then ``schema`` rides along so
    the worker can create it).  ``remove_rules`` are applied before
    ``add_rules`` so a changed rule body (same id) re-installs cleanly.
    """

    add_rules: tuple[CoordinationRule, ...] = ()
    remove_rules: tuple[str, ...] = ()
    inserts: Mapping[NodeId, Mapping[str, tuple[Row, ...]]] = field(
        default_factory=dict
    )
    replaces: Mapping[NodeId, Mapping[str, tuple[object, tuple[Row, ...]]]] = field(
        default_factory=dict
    )

    @property
    def empty(self) -> bool:
        """True when there is nothing to ship."""
        return not (
            self.add_rules or self.remove_rules or self.inserts or self.replaces
        )

    def for_shard(self, plan: ShardPlan, shard: int) -> dict:
        """The slice one worker needs: global rule changes + its owned data."""
        return {
            "add_rules": self.add_rules,
            "remove_rules": self.remove_rules,
            "inserts": {
                node: dict(relations)
                for node, relations in self.inserts.items()
                if plan.shard(node) == shard
            },
            "replaces": {
                node: dict(relations)
                for node, relations in self.replaces.items()
                if plan.shard(node) == shard
            },
        }


class WorldMirror:
    """What a pool's workers hold, as marks on the coordinator's own relations.

    Per relation the mirror keeps the :meth:`Relation.mark
    <repro.database.relation.Relation.mark>` taken when coordinator and
    workers last agreed on it — at spawn, after every sync, after every
    merge — plus the rule texts the workers run.  What a warm run must
    re-ship is then whatever the live relations hold beyond their marks.
    """

    def __init__(self, system: P2PSystem):
        self.rules: dict[str, str] = rules_fingerprint(system.registry)
        self.marks: dict[tuple[NodeId, str], Mark] = {}
        self.mark(system)

    def mark(self, system: P2PSystem) -> None:
        """Record that the workers hold the coordinator's current facts."""
        self.marks = relation_marks(system, system.nodes)

    def advance(self, system: P2PSystem) -> SyncDelta:
        """What changed in the coordinator since the marks were taken — rows
        in insertion order — with the marks moved up to now.

        Structural by construction: whatever mutated the system —
        ``load_data``, ``addLink``/``deleteLink``, a direct relation write —
        shows up, with no change-notification protocol to forget to call.
        """
        known, self.rules = self.rules, rules_fingerprint(system.registry)
        inserts: dict[NodeId, dict[str, tuple[Row, ...]]] = {}
        replaces: dict[NodeId, dict[str, tuple[object, tuple[Row, ...]]]] = {}
        for node_id, node in system.nodes.items():
            for relation in node.database.relations():
                rows = relation.since(self.marks.get((node_id, relation.name)))
                if rows is None:
                    # Rows vanished, or the relation is new to the workers:
                    # the only always-correct move is a wholesale rewrite
                    # (with the schema along, so it can be created there).
                    replaces.setdefault(node_id, {})[relation.name] = (
                        relation.schema,
                        tuple(relation),
                    )
                elif rows:
                    inserts.setdefault(node_id, {})[relation.name] = tuple(rows)
        self.mark(system)
        return SyncDelta(
            add_rules=tuple(
                rule
                for rule in system.registry
                if known.get(rule.rule_id) != rule.text
            ),
            remove_rules=tuple(
                rule_id
                for rule_id, text in known.items()
                if self.rules.get(rule_id) != text
            ),
            inserts=inserts,
            replaces=replaces,
        )


# ----------------------------------------------------------------- channels


class Channel(Protocol):
    """How the coordinator talks to one shard's worker.

    Commands go in through :meth:`put`; replies come back on the owning
    pool's results queue, never through the channel.
    """

    def put(self, command: tuple) -> None:
        """Deliver one worker command (``start`` / ``msg`` / ``ping`` / ...)."""

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
    coordinator's relations of what its workers hold, so :meth:`sync` ships
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
        self.closed = False
        #: Fault injector firing kill faults at this pool's phase hook points
        #: (the null injector keeps every hook a no-op on fault-free runs).
        self.injector = injector
        self._max_messages = worlds[0].max_messages if worlds else 1_000_000
        #: Set by :meth:`spawn`: marks need the system the worlds came from.
        self._mirror: WorldMirror | None = None
        self._results: Any = None
        self._channels: list[Channel] = []
        try:
            self._open(worlds)
            self._await_replies("ready")
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

    def _await_replies(self, kind: str) -> dict[int, object]:
        """Collect one ``kind`` reply per shard (raising on errors and crashes)."""
        collected: dict[int, object] = {}
        deadline = time.monotonic() + _WORKER_TIMEOUT
        while len(collected) < self.shard_count:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise NetworkError(
                    f"timed out waiting for {self.shard_count - len(collected)} "
                    f"shard worker(s) to report {kind!r}"
                )
            try:
                item = self._results.get(timeout=min(remaining, 1.0))
            except queue_module.Empty:
                # A worker that already answered may be gone legitimately;
                # only a dead channel whose reply is still outstanding is a
                # crash.
                for shard, channel in enumerate(self._channels):
                    if shard not in collected and not channel.alive:
                        raise NetworkError(
                            f"shard {shard} worker died unexpectedly "
                            f"({channel.reason})"
                        ) from None
                continue
            if item[0] == "error":
                raise NetworkError(f"shard {item[1]} worker failed:\n{item[2]}")
            if item[0] == kind:
                collected[item[1]] = item[2] if len(item) > 2 else None
        return collected

    def _quiescence_rounds(self) -> int:
        """Ping workers until two identical, balanced, all-idle rounds agree.

        Counters are cumulative, so if round ``g`` equals round ``g-1`` with
        every worker idle (empty local queue at reply time) and every shard's
        received count matching the sum everyone sent to it, no delivery
        happened between the rounds and nothing is in flight — the
        distributed double check.

        The stall deadline restarts whenever the counters move: a long phase
        that keeps delivering is healthy however many rounds it takes; only
        ``_WORKER_TIMEOUT`` seconds with *no* progress at all is a failure.

        Returns the number of ping rounds it took to certify quiescence (the
        "quiescence" span reports it as its ``rounds`` attribute).
        """
        previous = None
        last_progress = None
        generation = 0
        deadline = time.monotonic() + _WORKER_TIMEOUT
        while True:
            if time.monotonic() > deadline:
                raise NetworkError(
                    "the run stalled: no delivery progress for "
                    f"{_WORKER_TIMEOUT:.0f}s without reaching quiescence"
                )
            generation += 1
            for channel in self._channels:
                channel.put(("ping", generation))
            replies = self._await_replies("status")
            statuses = [replies[shard] for shard in sorted(replies)]
            if sum(status["delivered"] for status in statuses) > self._max_messages:
                raise NetworkError(
                    f"exceeded {self._max_messages} deliveries across shards; "
                    "the protocol does not appear to terminate"
                )
            all_idle = all(status["idle"] for status in statuses)
            balanced = all(
                sum(status["sent"][shard] for status in statuses)
                == statuses[shard]["received"]
                for shard in range(self.shard_count)
            )
            fingerprint = tuple(
                (status["sent"], status["received"], status["delivered"])
                for status in statuses
            )
            progress = tuple(status["delivered"] for status in statuses)
            if progress != last_progress:
                last_progress = progress
                deadline = time.monotonic() + _WORKER_TIMEOUT
            if all_idle and balanced and fingerprint == previous:
                _log.debug(
                    "quiescence certified after %d round(s), %d delivered",
                    generation,
                    sum(progress),
                )
                return generation
            previous = fingerprint if (all_idle and balanced) else None
            # A failed check means traffic is still moving; yield briefly so
            # workers get scheduled before the next round.
            time.sleep(0.002)

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
        if rules_fingerprint(system.registry) == self._mirror.rules:
            return None
        fresh = planner.plan_system(system)
        if dict(fresh.shard_of) == dict(self.plan.shard_of):
            return None
        return fresh

    # ------------------------------------------------------------------ runs

    def sync(self, system: P2PSystem) -> SyncDelta:
        """Ship the coordinator's changes since the last run to the workers.

        Returns the delta that was shipped (empty deltas ship nothing), so
        callers and tests can observe exactly what went over the wire.
        """
        self._require_open()
        delta = self._mirror.advance(system)
        if not delta.empty:
            for shard, channel in enumerate(self._channels):
                channel.put(("sync", delta.for_shard(self.plan, shard)))
        # A sync-phase kill lands here: the dead worker is detected by the
        # next run_phase's liveness check, never by a wedged barrier.
        self.injector.fire("sync", self)
        return delta

    def run_phase(
        self,
        phase: str,
        origins: Iterable[NodeId],
        *,
        tracer=None,
        mode: str | None = None,
    ) -> list[dict]:
        """Drive one phase over the warm workers and collect their payloads.

        The run starts at the owned origins, reaches distributed quiescence
        through the cumulative-counter barrier, then ``collect`` ships home
        what every shard gained (the workers keep running).  Once the caller
        has merged the payloads it calls :meth:`note_merged`.
        ``mode="incremental"`` asks the workers for the delta-driven update
        path; each worker double-checks eligibility against its own
        accumulated sync deltas and falls back to naive when they disagree.
        Any error closes the pool — a half-synced pool must never serve
        another run.
        """
        tracer = tracer if tracer is not None else NULL_TRACER
        try:
            self._require_open()
            start = ("start", phase, tuple(origins), mode)
            for channel in self._channels:
                channel.put(start)
            self.injector.fire("chase", self)
            with tracer.span("quiescence") as quiescence_span:
                quiescence_span.set(rounds=self._quiescence_rounds())
            self.injector.fire("quiescence", self)
            with tracer.span("collect"):
                for channel in self._channels:
                    channel.put(("collect",))
                collected = self._await_replies("collected")
        except BaseException:
            self.close()
            raise
        return [payload for _shard, payload in sorted(collected.items())]

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
