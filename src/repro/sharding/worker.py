"""The worker side of every process-backed engine: one shard, one state machine.

The process-backed engines partition the peers with the
:class:`~repro.sharding.planner.ShardPlanner` and give every shard a worker
with its own event queue and virtual clock, joined by inter-shard mailboxes
and a distributed-quiescence barrier.  This module is everything that runs
*inside* such a worker, whatever carries its commands:

* :class:`ShardWorld` is the picklable payload a worker rebuilds its shard
  from (schemas, rules, its data slice); :func:`_worlds_from_system` slices a
  live coordinator system into one world per shard.
* ``_WorkerTransport`` is the in-worker transport: the simulator's
  :class:`~repro.network.transport.SyncTransport` (queue, virtual clock,
  latency index, the per-run ``max_messages`` bound, the ``drain`` loop)
  plus an outbox for messages whose recipient lives in another shard.
  Cross-shard messages are stamped ``sender shard clock + latency`` by the
  sender and advance the receiving shard's clock on delivery.
* :class:`ShardWorker` is the one shard worker: a state machine that does
  no I/O and never blocks, stepped by thin drivers — a
  :class:`~repro.sharding.pool.WorkerPool` process, a
  :class:`~repro.sharding.sockets.ShardHost`'s one thread, the tests'
  in-memory driver.

Clock caveat: each worker drains its local queue to exhaustion between
stimuli and there is no global time synchronisation between shards, so a
shard whose local chain ran ahead stamps late cross-shard arrivals at its
already-advanced clock — the *simulated* completion time of a process-backed
run over-approximates the single-queue ``sync`` one on dense cuts.
Wall-clock time is these engines' honest metric; the simulated clocks exist
so traffic ordering stays causally sane.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Mapping

from repro.api.engine import start_run
from repro.coordination.changeset import Change, RelationMarks
from repro.coordination.rule import CoordinationRule, NodeId
from repro.errors import NetworkError
from repro.faults.injector import WorkerFrameInjector, injector_of
from repro.network.latency import LatencyModel
from repro.network.message import Message
from repro.network.transport import SyncTransport
from repro.obs import NULL_TRACER, Tracer, tracer_of
from repro.sharding.planner import ShardPlan
from repro.stats.collector import StatisticsCollector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports us)
    from repro.core.system import P2PSystem
    from repro.faults.plan import FaultPlan

#: Local deliveries one :meth:`ShardWorker.step` executes.  Bounded batches
#: let a driver read cross-shard arrivals and a ``stop`` while a long local
#: chain runs.
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
    #: The number of shards, owning peers or not: the width of the ledger.
    shard_count: int
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
                shard_count=plan.shard_count,
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


class _WorkerTransport(SyncTransport):
    """The simulator's queue for owned recipients, an outbox for the rest."""

    def __init__(
        self,
        shard_index: int,
        shard_of: Mapping[NodeId, int],
        shard_count: int,
        latency: LatencyModel | None,
        max_messages: int,
        clock_start: float = 0.0,
    ):
        super().__init__(latency, StatisticsCollector(), max_messages)
        self.shard_index = shard_index
        self.shard_of = dict(shard_of)
        #: ``("to", shard, ("msg", run, deliver_at, message))`` frames for
        #: other shards, in send order, until the machine hands them out.
        self.outbox: list[tuple] = []
        self.clock = clock_start
        #: The cross-shard ledger the quiescence barrier balances, kept over
        #: the worker's whole life: messages sent to each shard, received.
        self.cross_sent = [0] * shard_count
        self.cross_received = 0
        #: The latest ``start``'s run id, stamped on every cross-shard send.
        self.run_id = 0
        #: ``delivered_count`` as of the last report.
        self.reported = 0
        #: The owned peers that ran since the last report: the recipients of
        #: deliveries and the origins a ``start`` kicked off or seeded.  Only
        #: their protocol state can have moved.
        self.ran: set[NodeId] = set()
        self._held: list[tuple[int, float, Message]] = []
        #: Frame injector from the world's fault plan; None sends untouched.
        self.fault_injector: WorkerFrameInjector | None = None

    def send(self, message: Message) -> None:
        """Queue locally for owned recipients, ship across the cut otherwise."""
        target = self.shard_of.get(message.recipient)
        if target == self.shard_index or message.recipient not in self._handlers:
            super().send(message)
            return
        if target is None:
            raise NetworkError(
                f"cannot send {message}: recipient is outside the shard plan"
            )
        deliver_at = self.clock + self.latency.delay_for(message, self._sent)
        self._sent += 1
        if self.fault_injector is not None:
            # Frame faults model drop-as-retransmit / delay: the frame
            # still arrives exactly once (the cross-shard ledgers
            # stays balanced) but pays extra simulated latency.
            deliver_at += self.fault_injector.frame_fault()
        self.outbox.append(("to", target, ("msg", self.run_id, deliver_at, message)))
        self.cross_sent[target] += 1

    def _deliver(self, message: Message, at_time: float) -> None:
        self.ran.add(message.recipient)
        super()._deliver(message, at_time)

    def receive_cross(self, run: int, deliver_at: float, message: Message) -> bool:
        """Accept one message from another shard's worker.

        A message of a run whose ``start`` this worker has not taken yet is
        held (False) until :meth:`start_run`: it must see the change that
        ``start`` brings.
        """
        if run > self.run_id:
            self._held.append((run, deliver_at, message))
            return False
        self.cross_received += 1
        self._push(deliver_at, message)
        return True

    def start_run(self, run: int) -> None:
        """Take run ``run``'s ``start``: stamp its sends, open its budget of
        ``max_messages`` deliveries, and queue the messages held for it."""
        self.run_id = run
        self._allowed = self.delivered_count + self.max_messages
        if self.fault_injector is not None:
            self.fault_injector.start_run()
        held, self._held = self._held, []
        for message in held:
            self.receive_cross(*message)

    def ledger(self) -> tuple[tuple[int, ...], int]:
        """``(sent per shard, received)``: what the quiescence barrier balances."""
        return tuple(self.cross_sent), self.cross_received


class ShardWorker:
    """One shard worker as a state machine: commands in, frames out.

    It does no I/O and never blocks; a driver owns the I/O.  The driver
    passes each command that arrives to :meth:`handle` and calls
    :meth:`step` while the machine is :attr:`busy`; both return the
    ``("to", shard, command)`` frames to send on.  ``("start", run, phase,
    origins, change)`` applies this shard's slice of the
    coordinator's :class:`~repro.coordination.changeset.Change` (``None``
    when nothing changed) and kicks the phase off at the owned origins —
    on the delta path when :func:`~repro.api.engine.start_run`, handed the
    whole change, says so;
    ``("msg", run, deliver_at, message)`` is a cross-shard delivery, held
    until its run's ``start`` if it overtook it
    (:meth:`_WorkerTransport.receive_cross`).  ``stop`` ends the driver, not
    the machine; a failure raises, and the driver sends ``("error", shard,
    traceback)`` home and drops the machine.

    Quiescence is reported, not polled for: after a ``start`` or a ``msg``,
    the first time the machine is not busy *and* its driver has nothing left
    to read, :meth:`idle` returns ``("report", shard, run, ledger,
    payload)`` — the latest ``start``'s run, the cumulative cross-shard
    ledger (:meth:`_WorkerTransport.ledger`) and what moved since the
    previous report (:meth:`ShardWorker._report`) — and None otherwise.  One ``chase``
    span covers each busy period.

    The machine's system keeps the delta path's state (the pending change
    and whether the last update started everywhere), so a change that
    arrived with a discovery ``start`` still reaches the next update, and a
    freshly built worker runs its first update naive.  After applying a
    change the machine re-marks the relations it touched (:meth:`_remark`).
    """

    def __init__(self, world: ShardWorld):
        from repro.core.system import P2PSystem

        self.world = world
        self.transport = transport = _WorkerTransport(
            world.shard_index,
            world.shard_of,
            world.shard_count,
            world.latency,
            world.max_messages,
            clock_start=world.clock_start,
        )
        self.tracer = tracer = (
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
            self.system = system = P2PSystem(transport)
            for node_id, schema in world.schemas.items():
                propagation = world.propagation.get(node_id, "once")
                system.add_node(node_id, schema, propagation=propagation)
            for rule in world.rules:
                system.add_rule(rule)
            system.load_data(world.data_slice)
        #: What the coordinator holds of the shard: per owned relation, the
        #: mark taken when it was last shipped home, or when the world was
        #: built (those rows came from the coordinator); and the protocol
        #: state of each peer as last shipped.
        self._marks, self._shipped = RelationMarks(system, world.owned), {}
        if tracer.enabled:
            chase = transport.stats.chase_handles()
            for node in system.nodes.values():
                node.database.profile = chase
        self._chase_span = None
        self._chase_mark = 0
        #: Set by a ``start`` or a ``msg``: the machine owes an idle report.
        self._report_due = False

    @property
    def busy(self) -> bool:
        """Whether local deliveries are queued: :meth:`step` has work."""
        return bool(self.transport.pending)

    def handle(self, item: tuple) -> list[tuple]:
        """Take one command; return the frames it sent to other shards."""
        kind, transport = item[0], self.transport
        if kind == "msg":
            if transport.receive_cross(*item[1:]):
                self._report_due = True
        elif kind == "start":
            _kind, run, phase, origins, change = item
            system = self.system
            transport.start_run(run)
            change = Change() if change is None else change
            mine = change.only(self.world.owned)
            if not mine.empty:
                with self.tracer.span("sync", shard=self.world.shard_index):
                    mine.apply(system)
                    self._remark(mine)
            # The origins this shard starts, in order; None means every peer.
            nodes = self.world.owned
            if origins is not None:
                owned = set(nodes)
                nodes = tuple(origin for origin in origins if origin in owned)
            started = start_run(system, phase, origins, change, nodes=nodes)
            if phase == "discovery":
                # Every peer's discovery state restarted, here and at the
                # coordinator: what was shipped home before is gone.
                self._shipped.clear()
            transport.ran.update(started)
            self._report_due = True
        else:
            raise NetworkError(f"unknown control message {kind!r}")
        return self._sent()

    def step(self) -> list[tuple]:
        """Deliver up to ``_DRAIN_BATCH`` local messages; return the frames
        they sent to other shards."""
        transport, tracer = self.transport, self.tracer
        if self._chase_span is None and tracer.enabled:
            self._chase_span = tracer.start_span("chase", shard=self.world.shard_index)
            self._chase_mark = transport.delivered_count
        transport.drain(_DRAIN_BATCH)
        if self._chase_span is not None and not transport.pending:
            tracer.end_span(
                self._chase_span,
                delivered=transport.delivered_count - self._chase_mark,
            )
            self._chase_span = None
        return self._sent()

    def idle(self) -> tuple | None:
        """The report owed, once the driver found nothing left to read."""
        if not self._report_due or self.transport.pending:
            return None
        self._report_due = False
        return self._report()

    def _sent(self) -> list[tuple]:
        sent, self.transport.outbox = self.transport.outbox, []
        return sent

    def _report(self) -> tuple:
        """``("report", shard, run, ledger, payload)``, the payload being
        what moved since the previous report.

        ``change`` is :meth:`Change.read
        <repro.coordination.changeset.Change.read>` over the marks, so only
        the relations written since are visited; the protocol state of a
        peer that ran rides along when it changed, and ``mode`` is how the
        run started (:func:`~repro.api.engine.start_run`'s decision).
        Discovery paths do not ship: they are a function of the edges, and
        the coordinator derives them from its merged copy.  Counters (the
        A6 chase counters of a traced worker among them) and spans ship and
        restart from zero.
        """
        system, transport, shipped = self.system, self.transport, self._shipped
        change = Change.read(system, self._marks)
        node_state = {}
        for node_id in sorted(transport.ran):
            node = system.node(node_id)
            state = {"closed": node.is_update_closed, "edges": set(node.state.edges)}
            if shipped.get(node_id) != state:
                shipped[node_id] = node_state[node_id] = state
        delivered = transport.delivered_count
        payload = {
            "change": change,
            "node_state": node_state,
            # One aggregation code path for every engine: the worker ships the
            # counters of its registry that moved (and zeroes them in place);
            # the coordinator folds them in with merge_counters.
            "counters": transport.stats.ship_counters(),
            "delivered": delivered - transport.reported,
            "clock": transport.clock,
            "mode": system.mode,
        }
        transport.reported = delivered
        transport.ran = set()
        tracer = self.tracer
        if tracer.enabled:
            payload["spans"] = tracer.drain()
            payload["trace_clock"] = time.time()
        shard = self.world.shard_index
        return ("report", shard, transport.run_id, transport.ledger(), payload)

    def _remark(self, change: Change) -> None:
        """Mark the relations a coordinator ``change`` touched: both sides
        hold the same rows of them now.

        A change arrives with a ``start``, after the machine's last report
        of the run before, so nothing else moved since; this only drops what
        the coordinator already has from the next report.  Without it a row
        the coordinator deleted and this worker derives again would read as
        deleted and put back — no change — and never ship home.
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
            relation = self.system.node(node_id).database.relation(name)
            self._marks.marks[node_id, name] = relation.mark()
