"""The worker side of every process-backed engine: one shard, one loop.

The process-backed engines partition the peers with the
:class:`~repro.sharding.planner.ShardPlanner` and give every shard a worker
with its own event queue and virtual clock, joined by inter-shard mailboxes
and a distributed-quiescence barrier.  This module is everything that runs
*inside* such a worker, whatever carries its commands:

* :class:`ShardWorld` is the picklable payload a worker rebuilds its shard
  from (schemas, rules, its data slice); :func:`_worlds_from_system` slices a
  live coordinator system into one world per shard.
* ``_WorkerTransport`` is the in-worker transport: a discrete-event queue for
  intra-shard traffic plus outboxes for messages whose recipient lives in
  another shard.  Cross-shard messages are stamped ``sender shard clock +
  latency`` by the sender and advance the receiving shard's clock on
  delivery.
* :func:`shard_worker_loop` is the one persistent command loop (``start`` /
  ``msg`` / ``stop``).  Each time the worker runs out of work it reports
  home unasked, and the report carries what the coordinator does not hold
  yet (:func:`_report`), never the world.  A
  :class:`~repro.sharding.pool.WorkerPool` runs it as the target of one
  fork-server child per shard, a :class:`~repro.sharding.sockets.ShardHost`
  as one thread per hosted shard; a one-shot run is the same loop stopped
  after its first run.

Clock caveat: each worker drains its local queue to exhaustion between
stimuli and there is no global time synchronisation between shards, so a
shard whose local chain ran ahead stamps late cross-shard arrivals at its
already-advanced clock — the *simulated* completion time of a process-backed
run over-approximates the single-queue ``sync`` one on dense cuts.
Wall-clock time is these engines' honest metric; the simulated clocks exist
so traffic ordering stays causally sane.
"""

from __future__ import annotations

import heapq
import queue as queue_module
import time
import traceback
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.coordination.changeset import Change, RelationMarks
from repro.coordination.rule import CoordinationRule, NodeId
from repro.errors import NetworkError, ReproError
from repro.faults.injector import WorkerFrameInjector, injector_of
from repro.network.latency import LatencyModel
from repro.network.message import Message
from repro.network.transport import BaseTransport
from repro.obs import NULL_TRACER, Tracer, tracer_of
from repro.sharding.planner import ShardPlan
from repro.stats.collector import StatisticsCollector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports us)
    from repro.core.system import P2PSystem
    from repro.faults.plan import FaultPlan

#: Local deliveries a worker executes between inbox polls.  Bounded batches
#: let cross-shard arrivals and a ``stop`` in while a long local chain runs.
_DRAIN_BATCH = 500


# --------------------------------------------------------------------- worlds


@dataclass(frozen=True)
class ShardWorld:
    """Everything one worker process needs to rebuild its shard of the system.

    The payload is pickled to the worker by ``multiprocessing``, so every field holds
    plain library objects (schemas, rules, rows — all module-level classes).
    Each worker rebuilds the *full* node and rule graph (rules span shards, so
    every peer must exist everywhere) but loads only its own shard's data
    slice and only ever executes handlers of the peers it owns.
    """

    shard_index: int
    shard_of: dict[NodeId, int]
    schemas: dict[NodeId, object]
    rules: tuple[CoordinationRule, ...]
    data_slice: dict[NodeId, dict[str, frozenset]]
    propagation: dict[NodeId, str]
    latency: LatencyModel | None
    max_messages: int
    #: Simulated time already accumulated by earlier phases on this system;
    #: worker clocks start here so completion times stay monotone across
    #: consecutive runs, like the simulator's persistent clock.
    clock_start: float = 0.0
    #: Trace id of the coordinator's tracer, or None when tracing is off;
    #: a worker that receives one records spans and ships them home in its
    #: result payload.
    trace_id: str | None = None
    #: Frame-fault subset of the session's fault plan (a
    #: :class:`~repro.faults.plan.FaultPlan` or None): workers rebuild a
    #: :class:`~repro.faults.injector.WorkerFrameInjector` from it and perturb
    #: their own cross-shard sends.  Worlds ship once per spawn, so a worker's
    #: run index counts ``start`` commands within its generation.
    fault_plan: "FaultPlan | None" = None

    @cached_property
    def owned(self) -> tuple[NodeId, ...]:
        """The peers this shard's worker executes, sorted."""
        return tuple(
            sorted(n for n, s in self.shard_of.items() if s == self.shard_index)
        )


def _worlds_from_system(system: P2PSystem, plan: ShardPlan) -> list[ShardWorld]:
    """Slice a live coordinator system into one world per shard.

    Schemas and data are read from the *live* node databases (not the spec):
    a prior phase may have added relations or rows, and each new worker
    generation must start from the merged state of the previous one.
    """
    facts = {node_id: node.database.facts() for node_id, node in system.nodes.items()}
    schemas = {node_id: node.database.schema for node_id, node in system.nodes.items()}
    propagation = {node_id: node.propagation for node_id, node in system.nodes.items()}
    rules = tuple(system.registry)
    shard_of = dict(plan.shard_of)
    tracer = tracer_of(system)
    fault_plan = injector_of(system).worker_plan()
    worlds = []
    for shard in range(plan.shard_count):
        owned = {n for n, s in shard_of.items() if s == shard}
        worlds.append(
            ShardWorld(
                shard_index=shard,
                shard_of=shard_of,
                schemas=schemas,
                rules=rules,
                data_slice={n: facts[n] for n in owned if n in facts},
                propagation=propagation,
                latency=system.transport.latency,
                max_messages=system.transport.max_messages,
                clock_start=system.stats.simulated_time,
                trace_id=tracer.trace_id if tracer.enabled else None,
                fault_plan=fault_plan,
            )
        )
    return worlds


# ------------------------------------------------------------ worker process


class _WorkerTransport(BaseTransport):
    """The in-worker transport: local event queue + cross-shard outboxes."""

    def __init__(
        self,
        shard_index: int,
        shard_of: Mapping[NodeId, int],
        outboxes: list,
        latency: LatencyModel | None,
        max_messages: int,
        clock_start: float = 0.0,
    ):
        super().__init__(latency=latency, stats=StatisticsCollector())
        self.shard_index = shard_index
        self.shard_of = dict(shard_of)
        self.outboxes = outboxes
        self.max_messages = max_messages
        self.clock = clock_start
        #: The cross-shard ledger the quiescence barrier balances, kept over
        #: the worker's whole life: messages sent to each shard, received.
        self.cross_sent = [0] * len(outboxes)
        self.cross_received = 0
        #: Deliveries over the worker's life; the current run fails once they
        #: pass ``limit``, ``max_messages`` beyond where it started.
        self.delivered = 0
        self.limit = max_messages
        #: The latest ``start``'s run id, stamped on every cross-shard send.
        self.run = 0
        #: ``(delivered, cross_received)`` as of the last report.
        self.reported = (0, 0)
        #: The owned peers that ran since the last report: the recipients of
        #: deliveries and the origins a ``start`` kicked off or seeded.  Only
        #: their protocol state can have moved.
        self.ran: set[NodeId] = set()
        self._queue: list[tuple[float, int, Message]] = []
        self._held: list[tuple[int, float, Message]] = []
        self._tiebreak = 0
        self._sent = 0
        #: Worker-side frame injector (set by the worker loop when the
        #: shipped world carries a fault plan); None keeps sends untouched.
        self.fault_injector: WorkerFrameInjector | None = None

    def _push(self, deliver_at: float, message: Message) -> None:
        # Local monotone tie-break: Message objects are not orderable, and
        # sequence numbers from different processes can collide.
        self._tiebreak += 1
        heapq.heappush(self._queue, (deliver_at, self._tiebreak, message))

    def send(self, message: Message) -> None:
        """Queue locally for owned recipients, ship across the cut otherwise."""
        if message.recipient not in self._handlers:
            raise NetworkError(
                f"cannot send {message}: recipient is not registered"
            )
        target = self.shard_of.get(message.recipient)
        if target is None:
            raise NetworkError(
                f"cannot send {message}: recipient is outside the shard plan"
            )
        deliver_at = self.clock + self.latency.delay_for(message, self._sent)
        self._sent += 1
        if target == self.shard_index:
            self._push(deliver_at, message)
        else:
            if self.fault_injector is not None:
                # Frame faults model drop-as-retransmit / delay: the frame
                # still arrives exactly once (the cross-shard ledgers
                # stays balanced) but pays extra simulated latency.
                deliver_at += self.fault_injector.frame_fault()
            self.outboxes[target].put(("msg", self.run, deliver_at, message))
            self.cross_sent[target] += 1

    def receive_cross(self, run: int, deliver_at: float, message: Message) -> bool:
        """Accept one message from another shard's worker.

        A message of a run whose ``start`` this worker has not taken yet is
        held (False) until :meth:`start_run`: it must see the change that
        ``start`` brings.
        """
        if run > self.run:
            self._held.append((run, deliver_at, message))
            return False
        self.cross_received += 1
        self._push(deliver_at, message)
        return True

    def start_run(self, run: int) -> None:
        """Take run ``run``'s ``start``: stamp its sends, bound its
        deliveries, and queue the messages held for it."""
        self.run = run
        self.limit = self.delivered + self.max_messages
        if self.fault_injector is not None:
            self.fault_injector.start_run()
        held, self._held = self._held, []
        for message in held:
            self.receive_cross(*message)

    @property
    def has_local_work(self) -> bool:
        """True while local deliveries are queued."""
        return bool(self._queue)

    def drain(self, limit: int | None = None) -> None:
        """Deliver queued local events (handlers may enqueue more).

        ``limit`` bounds the batch so the worker loop can interleave inbox
        polls (cross-shard arrivals, a ``stop``) with long local chains;
        without it the drain runs to exhaustion (handlers may keep the queue
        alive, so exhaustion is only reached via the ``max_messages`` bound
        on divergent protocols).
        """
        remaining = limit
        while self._queue and (remaining is None or remaining > 0):
            if remaining is not None:
                remaining -= 1
            deliver_at, _tiebreak, message = heapq.heappop(self._queue)
            self.clock = max(self.clock, deliver_at)
            self.delivered += 1
            self.ran.add(message.recipient)
            if self.delivered > self.limit:
                raise NetworkError(
                    f"shard {self.shard_index} exceeded {self.max_messages} "
                    "deliveries in one run; the protocol does not appear to "
                    "terminate"
                )
            self._deliver(message, self.clock)

    def ledger(self) -> tuple[tuple[int, ...], int]:
        """``(sent per shard, received)``: what the quiescence barrier balances."""
        return tuple(self.cross_sent), self.cross_received


def _build_worker_system(world: ShardWorld, transport: _WorkerTransport) -> P2PSystem:
    from repro.core.system import P2PSystem

    system = P2PSystem(transport)
    for node_id, schema in world.schemas.items():
        system.add_node(
            node_id, schema, propagation=world.propagation.get(node_id, "once")
        )
    for rule in world.rules:
        system.add_rule(rule)
    system.load_data(world.data_slice)
    return system


def _owned_origins(
    world: ShardWorld, origins: Iterable[NodeId] | None
) -> tuple[NodeId, ...]:
    """The origins this shard starts, in order; ``None`` means every peer."""
    if origins is None:
        return world.owned
    owned = set(world.owned)
    return tuple(origin for origin in origins if origin in owned)


def _start_worker_phase(
    system: P2PSystem, phase: str, origins: Iterable[NodeId]
) -> None:
    for origin in origins:
        if phase == "discovery":
            system.node(origin).discovery.start()
        elif phase == "update":
            system.node(origin).update.start()
        else:  # pragma: no cover - the engine validates the phase
            raise ReproError(f"unknown phase {phase!r}")


def _report(
    system: P2PSystem,
    world: ShardWorld,
    transport: _WorkerTransport,
    marks: RelationMarks,
    shipped_state: dict[NodeId, dict],
) -> tuple:
    """One idle report: ``("report", shard, run, ledger, payload)``, the
    payload being what moved since the previous report.

    What the coordinator already holds of the shard is ``marks`` — per owned
    relation, the mark taken when it was last shipped home, or when the
    world was built (those rows came from the coordinator) — and
    ``shipped_state``, the protocol state as last shipped.  ``change`` is
    :meth:`Change.read <repro.coordination.changeset.Change.read>` over the
    marks, so only the relations written since are visited; the protocol
    state of a peer that ran rides along when it changed.  Discovery paths
    do not ship: they are a function of the edges, and the coordinator
    derives them from its merged copy.  Counters, spans and the chase
    profile ship and restart from zero.
    """
    change = Change.read(system, marks)
    node_state = {}
    for node_id in sorted(transport.ran):
        node = system.node(node_id)
        state = {"closed": node.is_update_closed, "edges": set(node.state.edges)}
        if shipped_state.get(node_id) != state:
            shipped_state[node_id] = node_state[node_id] = state
    delivered, received = transport.delivered, transport.cross_received
    payload = {
        "shard": world.shard_index,
        "change": change,
        "node_state": node_state,
        # One aggregation code path for every engine: the worker ships its
        # whole metrics registry; the coordinator folds it in with
        # StatisticsCollector.merge_counters.
        "counters": transport.stats.dump_counters(),
        "delivered": delivered - transport.reported[0],
        "cross_received": received - transport.reported[1],
        "clock": transport.clock,
    }
    transport.reported = (delivered, received)
    transport.stats.reset()
    transport.ran = set()
    tracer = tracer_of(transport)
    if tracer.enabled:
        payload["spans"] = tracer.drain()
        payload["trace_clock"] = time.time()
        # Ship-and-zero in place: the worker's databases hold references to
        # this ChaseProfile, so it must stay the same object across runs.
        chase = tracer.chase
        payload["chase_profile"] = vars(chase).copy()
        for name, value in vars(chase).items():
            setattr(chase, name, type(value)())
    return ("report", world.shard_index, transport.run, transport.ledger(), payload)


def _remark(system: P2PSystem, marks: RelationMarks, change: Change) -> None:
    """Mark the relations a coordinator ``change`` touched: both sides hold
    the same rows of them now.

    A change arrives with a ``start``, after the worker's last report of
    the run before, so nothing else moved since; this only drops what the
    coordinator already has from the next report.  Without it a row the
    coordinator deleted and this worker derives again would read as deleted
    and put back — no change — and never ship home.
    """
    touched = {
        (node_id, name)
        for rows in (change.inserts, change.removes, change.replaces)
        for node_id, relations in rows.items()
        for name in relations
    }
    for node_id, schemas in change.relations.items():
        touched.update((node_id, schema.name) for schema in schemas)
    for node_id, name in touched:
        marks.marks[node_id, name] = system.node(node_id).database.relation(name).mark()


def shard_worker_loop(world: ShardWorld, outboxes: list, results) -> None:
    """The command loop of one shard worker (a process target or a host thread).

    ``outboxes[s]`` is where a command for shard ``s`` goes (this worker's
    own entry is its inbox); replies go to ``results``.  Control and data
    share the single inbox, so the loop is fully event-driven:
    ``("start", run, phase, origins, mode, change)`` applies the
    coordinator's :class:`~repro.coordination.changeset.Change` for this
    shard (``None`` when nothing changed) and kicks the phase off at the
    owned origins, ``("msg", run, deliver_at, message)`` is a cross-shard
    delivery (held until its run's ``start`` if it overtook it:
    :meth:`_WorkerTransport.receive_cross`), and ``stop`` ends the worker.

    Quiescence is reported, not polled for: after a ``start`` or a ``msg``,
    the first time the local queue and the inbox are both empty the worker
    puts ``("report", shard, run, ledger, payload)`` on ``results`` and only
    then blocks.  ``run`` is the latest ``start``'s, ``ledger`` the
    cumulative cross-shard counters (:meth:`_WorkerTransport.ledger`, never
    reset) and ``payload`` what moved since the previous report
    (:func:`_report`).  The coordinator certifies termination from
    the reports alone (:meth:`ShardPool._await_quiescence
    <repro.sharding.pool.ShardPool._await_quiescence>`).

    Every change is also folded into the worker's pending
    :class:`~repro.coordination.changeset.Change` (with ``union``), which an
    update ``start`` consumes: if the coordinator asked for
    ``mode="incremental"`` *and* the pending change is ``rows_only``, the
    owned nodes it inserted into or removed from seed their delta frontier
    instead of re-opening for naive pull rounds.  After applying a change
    the worker re-marks the relations it touched (:func:`_remark`).  The
    worker-side check is authoritative — a coordinator that over-asks (say,
    after a rule change it did not notice) still gets a correct naive run.
    """
    inbox = outboxes[world.shard_index]
    pending = Change()
    try:
        transport = _WorkerTransport(
            world.shard_index,
            world.shard_of,
            outboxes,
            world.latency,
            world.max_messages,
            clock_start=world.clock_start,
        )
        tracer = (
            Tracer(trace_id=world.trace_id, process=f"shard-{world.shard_index}")
            if world.trace_id is not None
            else NULL_TRACER
        )
        transport.tracer = tracer
        if world.fault_plan is not None:
            transport.fault_injector = WorkerFrameInjector(
                world.fault_plan,
                world.shard_index,
                transport.stats.registry,
            )
        with tracer.span("build", shard=world.shard_index):
            system = _build_worker_system(world, transport)
        marks, shipped = RelationMarks(system, world.owned), {}
        if tracer.enabled:
            for node in system.nodes.values():
                node.database.profile = tracer.chase
        results.put(("ready", world.shard_index))
        # One "chase" span covers each busy period: opened when local work
        # appears, closed when the queue drains and the worker blocks again.
        chase_span = None
        delivered_mark = 0
        # Set by a ``start`` or a ``msg``: the worker owes the coordinator an
        # idle report once its local queue and its inbox are both empty.
        report_due = False
        while True:
            if transport.has_local_work:
                if chase_span is None and tracer.enabled:
                    chase_span = tracer.start_span("chase", shard=world.shard_index)
                    delivered_mark = transport.delivered
                try:
                    item = inbox.get_nowait()
                except queue_module.Empty:
                    transport.drain(_DRAIN_BATCH)
                    continue
            else:
                if chase_span is not None:
                    tracer.end_span(
                        chase_span, delivered=transport.delivered - delivered_mark
                    )
                    chase_span = None
                if report_due and inbox.empty():
                    results.put(_report(system, world, transport, marks, shipped))
                    report_due = False
                item = inbox.get()
            kind = item[0]
            if kind == "msg":
                if transport.receive_cross(*item[1:]):
                    report_due = True
            elif kind == "start":
                _kind, run, phase, origins, mode, change = item
                transport.start_run(run)
                if change is not None:
                    with tracer.span("sync", shard=world.shard_index):
                        change.apply(system)
                        pending = pending.union(change)
                        _remark(system, marks, change)
                started = _owned_origins(world, origins)
                if phase == "update":
                    changes, pending = pending, Change()
                    if mode == "incremental" and changes.rows_only:
                        started = system.seed_update_delta(changes, nodes=started)
                    else:
                        _start_worker_phase(system, phase, started)
                else:
                    # Discovery runs neither consume nor stale the pending
                    # delta; it still belongs to the next update start.
                    _start_worker_phase(system, phase, started)
                transport.ran.update(started)
                report_due = True
            elif kind == "stop":
                return
            else:  # pragma: no cover - coordinator never sends other kinds
                raise NetworkError(f"unknown control message {kind!r}")
    except BaseException:  # noqa: BLE001 - shipped to the coordinator
        results.put(("error", world.shard_index, traceback.format_exc()))
