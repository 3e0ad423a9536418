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
  ``msg`` / ``ping`` / ``sync`` / ``collect`` / ``stop``).  ``collect`` ships
  home what the coordinator does not hold yet (:class:`_Shipped`), never the
  world.  A
  :class:`~repro.sharding.pool.WorkerPool` runs it as the target of one
  fork-server child per shard, a :class:`~repro.sharding.sockets.ShardHost`
  as one thread per hosted shard; a one-shot run is the same loop stopped
  after its first ``collect``.

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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.coordination.changeset import ChangeAccumulator, ChangeSet
from repro.coordination.rule import CoordinationRule, NodeId
from repro.database.relation import Mark
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
#: keep ping replies prompt (a worker never disappears into an unbounded
#: drain), which is what lets the coordinator tell "stalled" from "busy".
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

    @property
    def owned(self) -> tuple[NodeId, ...]:
        """The peers this shard's worker executes."""
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
        self.delivered = 0
        self.cross_sent = [0] * len(outboxes)
        self.cross_received = 0
        self._queue: list[tuple[float, int, Message]] = []
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
                # still arrives exactly once (the cumulative-counter barrier
                # stays balanced) but pays extra simulated latency.
                deliver_at += self.fault_injector.frame_fault()
            self.outboxes[target].put(("msg", deliver_at, message))
            self.cross_sent[target] += 1

    def receive_cross(self, deliver_at: float, message: Message) -> None:
        """Accept one message from another shard's worker."""
        self.cross_received += 1
        self._push(deliver_at, message)

    @property
    def has_local_work(self) -> bool:
        """True while local deliveries are queued."""
        return bool(self._queue)

    def drain(self, limit: int | None = None) -> None:
        """Deliver queued local events (handlers may enqueue more).

        ``limit`` bounds the batch so the worker loop can interleave inbox
        polls (control pings, cross-shard arrivals) with long local chains;
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
            if self.delivered > self.max_messages:
                raise NetworkError(
                    f"shard {self.shard_index} exceeded {self.max_messages} "
                    "deliveries; the protocol does not appear to terminate"
                )
            self._deliver(message, self.clock)

    def status(self) -> dict:
        """The cumulative counters the quiescence rounds compare.

        ``idle`` reports whether the local queue was empty at reply time —
        required for quiescence, because with batched drains a worker can
        answer a ping while deliveries are still pending locally.
        """
        return {
            "idle": not self._queue,
            "sent": tuple(self.cross_sent),
            "received": self.cross_received,
            "delivered": self.delivered,
            "clock": self.clock,
        }


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


def _start_worker_phase(
    system: P2PSystem, world: ShardWorld, phase: str, origins: Iterable[NodeId]
) -> None:
    owned = set(world.owned)
    for origin in origins:
        if origin in owned:
            if phase == "discovery":
                system.node(origin).discovery.start()
            elif phase == "update":
                system.node(origin).update.start()
            else:  # pragma: no cover - the engine validates the phase
                raise ReproError(f"unknown phase {phase!r}")


def relation_marks(
    system: P2PSystem, node_ids: Iterable[NodeId]
) -> dict[tuple[NodeId, str], Mark]:
    """A :meth:`Relation.mark <repro.database.relation.Relation.mark>` per
    relation of ``node_ids``, taken when both sides of the coordinator↔worker
    boundary hold the same rows of it."""
    return {
        (node_id, relation.name): relation.mark()
        for node_id in node_ids
        for relation in system.node(node_id).database.relations()
    }


@dataclass
class _Shipped:
    """What the coordinator already holds of this worker's shard.

    ``marks`` keeps, per owned relation, the mark taken when it was last
    shipped home — or when the world was built, since those rows came from
    the coordinator; ``node_state`` the protocol state as last shipped.
    """

    marks: dict[tuple[NodeId, str], Mark]
    node_state: dict[NodeId, dict] = field(default_factory=dict)


def _worker_payload(
    system: P2PSystem,
    world: ShardWorld,
    transport: _WorkerTransport,
    phase: str,
    shipped: _Shipped,
) -> dict:
    """What one worker ships back: new facts, changed protocol state, stats.

    Per owned relation ``facts`` carries ``(whole, rows)``: the rows appended
    since the relation was last shipped, in insertion order, or — when its
    mark does not validate (a ``delete`` / ``clear`` / replace, a new or
    swapped relation) — every row, flagged ``whole``.  A relation the
    coordinator has never been sent brings its schema; a node's protocol
    state rides along when it changed.
    """
    if phase == "discovery":
        for node_id in world.owned:
            system.node(node_id).discovery.finalize_paths()
    facts: dict[NodeId, dict] = {}
    schemas: dict[NodeId, list] = {}
    node_state = {}
    for node_id in world.owned:
        node = system.node(node_id)
        for relation in node.database.relations():
            key = (node_id, relation.name)
            rows = relation.since(shipped.marks.get(key))
            if rows is None:
                if key not in shipped.marks:
                    schemas.setdefault(node_id, []).append(relation.schema)
                facts.setdefault(node_id, {})[relation.name] = (True, tuple(relation))
            elif rows:
                facts.setdefault(node_id, {})[relation.name] = (False, tuple(rows))
            shipped.marks[key] = relation.mark()
        state = {
            "closed": node.is_update_closed,
            "edges": set(node.state.edges),
            "paths": dict(node.state.paths),
        }
        if shipped.node_state.get(node_id) != state:
            shipped.node_state[node_id] = node_state[node_id] = state
    payload = {
        "facts": facts,
        "schemas": schemas,
        "node_state": node_state,
        # One aggregation code path for every engine: the worker ships its
        # whole metrics registry; the coordinator folds it in with
        # StatisticsCollector.merge_counters.
        "counters": transport.stats.dump_counters(),
        "delivered": transport.delivered,
        "cross_sent": tuple(transport.cross_sent),
        "cross_received": transport.cross_received,
        "clock": transport.clock,
    }
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
    return payload


def _apply_sync(system: P2PSystem, world: ShardWorld, delta: dict) -> None:
    """Apply one coordinator delta inside a worker process."""
    from repro.database.schema import RelationSchema

    for rule_id in delta["remove_rules"]:
        system.remove_rule(rule_id)
    for rule in delta["add_rules"]:
        system.add_rule(rule)
    for node_id, relations in delta["replaces"].items():
        node = system.node(node_id)
        for relation_name, (schema, rows) in relations.items():
            if relation_name not in node.database:
                node.database.add_relation(
                    RelationSchema(schema.name, list(schema.attributes))
                )
            relation = node.database.relation(relation_name)
            relation.clear()
            relation.insert_many(rows)
    for node_id, relations in delta["inserts"].items():
        node = system.node(node_id)
        for relation_name, rows in relations.items():
            node.database.relation(relation_name).insert_many(rows)


def _start_incremental_phase(
    system: P2PSystem,
    world: ShardWorld,
    changes: ChangeSet,
    origins: Iterable[NodeId],
) -> None:
    """Kick an incremental update off inside a worker: seed owned dirty nodes.

    The delta-driven counterpart of :func:`_start_worker_phase`: instead of opening
    every owned origin for naive pull rounds, only the owned nodes that
    actually received inserts since the last converged run seed their delta
    frontier (see :meth:`repro.core.update.UpdateProtocol.start_incremental`).
    Nodes untouched by the delta do nothing until a fragment push reaches
    them — that is the whole point of the incremental mode.
    """
    allowed = set(world.owned) & set(origins)
    system.seed_update_delta(changes, nodes=allowed)


def _reset_run_counters(transport: _WorkerTransport) -> None:
    """Zero the per-run counters after a collect (the clock stays).

    Every worker resets while the network is provably quiescent (collect
    follows the barrier), so the cross-shard sent/received ledgers stay
    balanced — the next run's quiescence check starts from zeros everywhere.
    """
    transport.stats.reset()
    transport.delivered = 0
    transport.cross_sent = [0] * len(transport.cross_sent)
    transport.cross_received = 0


def shard_worker_loop(world: ShardWorld, outboxes: list, results) -> None:
    """The command loop of one shard worker (a process target or a host thread).

    ``outboxes[s]`` is where a command for shard ``s`` goes (this worker's
    own entry is its inbox); replies go to ``results``.  Control and data
    share the single inbox, so the loop is fully event-driven: ``start``
    kicks the phase off at the owned origins, ``msg`` is a cross-shard
    delivery, ``ping`` answers a quiescence round (with an ``idle`` flag
    saying whether the local queue was empty), ``sync`` applies a
    coordinator delta between runs (rule changes first, then data),
    ``collect`` ships home what the shard gained since its last collect
    (:func:`_worker_payload`) *without* exiting, resetting the per-run
    counters so the next run starts from a clean ledger, and ``stop`` ends
    the worker.  Commands are FIFO per worker, so
    a ``sync`` queued before a ``start`` is always applied before the phase
    begins.  Local deliveries run in bounded batches between inbox polls, so
    pings are answered promptly however long the local chain is — the
    coordinator can always tell a busy shard from a stalled one.

    Every ``sync`` delta is also folded into a worker-side
    :class:`~repro.coordination.changeset.ChangeAccumulator`.  When a
    ``start`` arrives for the update phase, the accumulated changes are
    consumed: if the coordinator requested ``mode="incremental"`` *and* the
    worker's own accumulator agrees the changes were insert-only
    (``incremental_ok``), the owned dirty nodes seed their delta frontier
    instead of re-opening for naive pull rounds.  The worker-side check is
    authoritative — a coordinator that over-asks (say, after a rule change
    it did not notice) still gets a correct naive run.
    """
    inbox = outboxes[world.shard_index]
    phase = "update"
    pending = ChangeAccumulator()
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
        shipped = _Shipped(relation_marks(system, world.owned))
        if tracer.enabled:
            for node in system.nodes.values():
                node.database.profile = tracer.chase
        results.put(("ready", world.shard_index))
        # One "chase" span covers each busy period: opened when local work
        # appears, closed when the queue drains and the worker blocks again.
        chase_span = None
        delivered_mark = 0
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
                item = inbox.get()
            kind = item[0]
            if kind == "start":
                if transport.fault_injector is not None:
                    transport.fault_injector.start_run()
                _kind, phase, origins, mode = item
                if phase == "update":
                    changes = pending.take()
                    if mode == "incremental" and changes.incremental_ok:
                        _start_incremental_phase(system, world, changes, origins)
                    else:
                        _start_worker_phase(system, world, phase, origins)
                else:
                    # Discovery runs neither consume nor stale the pending
                    # delta; it still belongs to the next update start.
                    _start_worker_phase(system, world, phase, origins)
            elif kind == "msg":
                transport.receive_cross(item[1], item[2])
            elif kind == "ping":
                # Pings are lockstep (the coordinator sends the next round
                # only after every shard answered), so the reply does not
                # need to echo the generation in item[1].
                results.put(("status", world.shard_index, transport.status()))
            elif kind == "sync":
                with tracer.span("sync", shard=world.shard_index):
                    _apply_sync(system, world, item[1])
                    pending.note_sync_payload(item[1])
            elif kind == "collect":
                payload = _worker_payload(system, world, transport, phase, shipped)
                results.put(("collected", world.shard_index, payload))
                _reset_run_counters(transport)
            elif kind == "stop":
                return
            else:  # pragma: no cover - coordinator never sends other kinds
                raise NetworkError(f"unknown control message {kind!r}")
    except BaseException:  # noqa: BLE001 - shipped to the coordinator
        results.put(("error", world.shard_index, traceback.format_exc()))


