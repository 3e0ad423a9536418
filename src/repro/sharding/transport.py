"""A partitioned transport: one worker per shard, mailboxes across the cut.

:class:`ShardedTransport` scales the simulation past what one global event
queue handles comfortably by partitioning the peers across K shards (see
:mod:`repro.sharding.planner`).  Each shard owns

* a local discrete-event queue with its own virtual clock (messages between
  co-located peers never leave the shard),
* an inter-shard *mailbox* receiving messages whose sender lives in another
  shard (the cross-cut traffic the planner minimises),
* one asyncio task (the shard worker) draining queue and mailbox in
  (delivery time, sequence) order.

Quiescence is detected with a distributed-style barrier: the run is over when
every shard worker is idle, every mailbox and queue is empty, and no delivery
is in flight — double-checked after a scheduler yield, because the last
delivery of one shard may have refilled another shard's mailbox.

Clock semantics: a message is stamped ``sender shard clock + latency`` when
sent and the receiving shard's clock advances to at least that stamp on
delivery, so per-shard clocks model shards executing *in parallel* and the
simulated completion time of a run is the maximum shard clock — the quantity
the scalability experiments compare against the single-queue
:class:`~repro.network.transport.SyncTransport`.  There is deliberately no
global time synchronisation between shards (each worker drains its own queue
in local timestamp order): a shard whose local chain ran ahead stamps late
cross-shard arrivals at its already-advanced clock, so topologies with a
dense cut report a *longer* sharded completion time than the global
discrete-event clock would — the simulated cost of unsynchronised shard
workers, which the planner's cut minimisation is there to contain.
"""

from __future__ import annotations

import asyncio
import heapq
import time
from collections import deque
from dataclasses import dataclass, field

from repro.errors import NetworkError, UnknownPeerError
from repro.network.latency import LatencyModel
from repro.network.message import Message
from repro.network.transport import BaseTransport
from repro.sharding.planner import ShardPlan
from repro.stats.collector import StatisticsCollector


@dataclass
class _Shard:
    """One shard's queue, mailbox, clock and worker bookkeeping."""

    index: int
    queue: list[tuple[float, int, Message]] = field(default_factory=list)
    mailbox: deque[tuple[float, int, Message]] = field(default_factory=deque)
    clock: float = 0.0
    idle: bool = True
    delivered: int = 0
    cross_received: int = 0
    wakeup: asyncio.Event | None = None

    def wake(self) -> None:
        if self.wakeup is not None:
            self.wakeup.set()


class ShardedTransport(BaseTransport):
    """K per-shard event queues joined by inter-shard mailboxes."""

    kind = "sharded"

    def __init__(
        self,
        shard_count: int = 2,
        latency: LatencyModel | None = None,
        stats: StatisticsCollector | None = None,
        max_messages: int = 1_000_000,
    ):
        if shard_count < 1:
            raise NetworkError("a sharded transport needs at least one shard")
        super().__init__(latency=latency, stats=stats)
        self.shard_count = shard_count
        self.max_messages = max_messages
        self.delivered_count = 0
        self.plan: ShardPlan | None = None
        self._shards: list[_Shard] = [_Shard(i) for i in range(shard_count)]
        self._shard_of: dict[str, int] = {}
        self._in_flight = 0
        self._quiescent: asyncio.Event | None = None
        self._stopping = False
        self._error: BaseException | None = None

    # ------------------------------------------------------------ partitioning

    def apply_plan(self, plan: ShardPlan) -> None:
        """Adopt a shard plan; every registered peer must be covered.

        The plan may name fewer shards than the transport was created with
        (the planner never opens more shards than there are peers); the extra
        shards simply stay empty.
        """
        if plan.shard_count > self.shard_count:
            raise NetworkError(
                f"plan uses {plan.shard_count} shards but the transport "
                f"has only {self.shard_count}"
            )
        missing = [peer for peer in self._handlers if peer not in plan.shard_of]
        if missing:
            raise NetworkError(
                f"shard plan does not cover registered peers {sorted(missing)}"
            )
        if self._in_flight:
            raise NetworkError("cannot re-plan while deliveries are in flight")
        self.plan = plan
        self._shard_of = {node: plan.shard(node) for node in plan.shard_of}

    def shard_of(self, node_id: str) -> int:
        """The shard a peer is (or will be) assigned to.

        Peers that join after planning — the dynamic-network case — are
        pinned to the currently least-loaded shard on first use.
        """
        shard = self._shard_of.get(node_id)
        if shard is None:
            sizes = [0] * self.shard_count
            for owner in self._shard_of.values():
                sizes[owner] += 1
            shard = min(range(self.shard_count), key=lambda s: (sizes[s], s))
            self._shard_of[node_id] = shard
        return shard

    @property
    def shards(self) -> tuple[_Shard, ...]:
        """The shard records (read-only view for stats and tests)."""
        return tuple(self._shards)

    # ---------------------------------------------------------------- sending

    def send(self, message: Message) -> None:
        """Queue ``message`` on the recipient's shard.

        Same-shard messages go straight into the shard's event queue;
        cross-shard messages go through the recipient shard's mailbox (and
        are counted as cut traffic).  Sends are legal both inside a running
        worker (a handler forwarding data) and outside any event loop (a
        protocol phase being started before the workers spin up).
        """
        if message.recipient not in self._handlers:
            raise UnknownPeerError(
                f"cannot send {message}: recipient is not registered"
            )
        if self.plan is None:
            raise NetworkError(
                "the sharded transport has no shard plan yet; apply_plan() "
                "first (Session.run / ShardedEngine do this automatically)"
            )
        sender_shard = (
            self._shards[self.shard_of(message.sender)]
            if message.sender in self._handlers or message.sender in self._shard_of
            else None
        )
        target = self._shards[self.shard_of(message.recipient)]
        origin_clock = sender_shard.clock if sender_shard is not None else target.clock
        deliver_at = origin_clock + self.latency.delay_for(message)
        entry = (deliver_at, message.sequence, message)
        self._in_flight += 1
        if sender_shard is target:
            heapq.heappush(target.queue, entry)
        else:
            target.mailbox.append(entry)
            target.cross_received += 1
        target.wake()

    @property
    def pending(self) -> int:
        """Messages queued or in delivery across all shards."""
        return self._in_flight

    # ----------------------------------------------------------------- running

    async def run_until_quiescent(self) -> float:
        """Drive every shard worker until the whole network is quiescent.

        Returns the simulated completion time (the maximum shard clock).
        Raises :class:`NetworkError` after ``max_messages`` deliveries — a
        non-terminating protocol — and re-raises any handler error.
        """
        if self.plan is None:
            raise NetworkError(
                "the sharded transport has no shard plan yet; apply_plan() first"
            )
        started = time.perf_counter()
        self._stopping = False
        self._error = None
        # Events bind to the running loop, and each blocking run uses a fresh
        # asyncio.run loop, so they are recreated per run.
        self._quiescent = asyncio.Event()
        if self._in_flight == 0:
            self._quiescent.set()
        for shard in self._shards:
            shard.wakeup = asyncio.Event()
            shard.idle = False
        loop = asyncio.get_running_loop()
        workers = [loop.create_task(self._shard_worker(s)) for s in self._shards]
        try:
            await self._quiescence_barrier()
        finally:
            self._stopping = True
            for shard in self._shards:
                shard.wake()
            await asyncio.gather(*workers)
            self.stats.elapsed_wall_seconds += time.perf_counter() - started
        if self._error is not None:
            raise self._error
        return self.completion_time

    @property
    def completion_time(self) -> float:
        """The simulated completion time so far: the maximum shard clock."""
        return max(shard.clock for shard in self._shards)

    async def _shard_worker(self, shard: _Shard) -> None:
        """One shard's event loop: drain mailbox + queue, then wait for work."""
        while True:
            if self._stopping:
                # Set only after the barrier decided quiescence (queues empty)
                # or after a worker failed (remaining traffic is moot).
                shard.idle = True
                return
            while shard.mailbox:
                heapq.heappush(shard.queue, shard.mailbox.popleft())
            if shard.queue:
                shard.idle = False
                deliver_at, _sequence, message = heapq.heappop(shard.queue)
                shard.clock = max(shard.clock, deliver_at)
                try:
                    self.delivered_count += 1
                    shard.delivered += 1
                    if self.delivered_count > self.max_messages:
                        raise NetworkError(
                            f"exceeded {self.max_messages} deliveries; "
                            "the protocol does not appear to terminate"
                        )
                    self._deliver(message, shard.clock)
                except BaseException as error:  # noqa: BLE001 - stored, re-raised
                    self._error = error
                    self._signal_quiescent()
                    return
                finally:
                    self._in_flight -= 1
                    if self._in_flight == 0:
                        self._signal_quiescent()
                # Yield so the K workers interleave deterministically instead
                # of one shard draining to exhaustion while the others starve.
                await asyncio.sleep(0)
                continue
            shard.idle = True
            if self._stopping:
                return
            assert shard.wakeup is not None
            shard.wakeup.clear()
            if shard.mailbox or shard.queue or self._stopping:
                continue  # work (or shutdown) raced the clear; re-check
            await shard.wakeup.wait()

    def _signal_quiescent(self) -> None:
        if self._quiescent is not None:
            self._quiescent.set()

    async def _quiescence_barrier(self) -> None:
        """Block until the network is globally quiescent (or a worker failed).

        The barrier is the distributed-termination double check: the fast
        signal is the in-flight counter reaching zero, but that alone only
        proves no message is queued *right now* — it is confirmed only once
        every shard reports idle with an empty mailbox and queue after a
        scheduler yield.
        """
        assert self._quiescent is not None
        while True:
            if self._error is not None:
                return
            if self._in_flight == 0:
                if all(
                    shard.idle and not shard.mailbox and not shard.queue
                    for shard in self._shards
                ):
                    return
                # Workers are finishing their bookkeeping; let them run.
                await asyncio.sleep(0)
                continue
            self._quiescent.clear()
            await self._quiescent.wait()

    # ------------------------------------------------------------------ stats

    def shard_message_counts(self) -> dict[int, int]:
        """Messages delivered per shard so far."""
        return {shard.index: shard.delivered for shard in self._shards}

    @property
    def cross_shard_messages(self) -> int:
        """Messages that crossed the cut (routed through a mailbox)."""
        return sum(shard.cross_received for shard in self._shards)

    @property
    def intra_shard_messages(self) -> int:
        """Delivered messages that stayed inside their shard."""
        return self.delivered_count - min(
            self.cross_shard_messages, self.delivered_count
        )

    def __repr__(self) -> str:
        planned = "planned" if self.plan is not None else "unplanned"
        return (
            f"ShardedTransport({self.shard_count} shards, {planned}, "
            f"{self.delivered_count} delivered, {self._in_flight} pending)"
        )
