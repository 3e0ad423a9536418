"""Message transports: the discrete-event simulator and the shared base.

The paper's algorithm "is based on an asynchronous model of communications".
:class:`SyncTransport` simulates that model with a virtual clock: every
message gets a delay from the transport's
:class:`~repro.network.latency.LatencyModel`, messages are delivered in
(delivery time, send index) order, handlers run to completion one at a time,
and :meth:`SyncTransport.run` drains the network until quiescence; the
virtual clock at quiescence is the experiment's "execution time".  Under the
default constant latency this is the deterministic mode of the tests and
benchmarks; under a seeded
:class:`~repro.network.latency.UniformLatency` every seed is a different
legal delivery order, which is how the test-suite checks that the fix-point
does not depend on the schedule.

Handlers are synchronous callables ``handler(message) -> None`` that may call
``transport.send`` while running; protocol state updates are local to a node,
so running one handler at a time per node is all the isolation needed.
"""

from __future__ import annotations

import heapq
import time
from types import MethodType
from typing import Any, Callable
from weakref import ref

from repro.errors import NetworkError, UnknownPeerError
from repro.network.latency import ConstantLatency, LatencyModel
from repro.network.message import Message
from repro.stats.collector import StatisticsCollector

Handler = Callable[[Message], None]


def _call(handler: Handler, message: Message) -> None:
    handler(message)


class BaseTransport:
    """Shared peer registry, latency model and statistics plumbing."""

    #: The transport's name in the registry of :mod:`repro.api.engine`, which
    #: is how :func:`~repro.api.engine.engine_for` finds its engine (empty:
    #: not a registered transport).
    kind: str = ""

    def __init__(
        self,
        latency: LatencyModel | None = None,
        stats: StatisticsCollector | None = None,
    ):
        self.latency = latency or ConstantLatency(1.0)
        self.stats = stats or StatisticsCollector()
        #: Peer id -> ``(owner, function)``: a delivery calls
        #: ``function(owner(), message)``, unless ``owner()`` is None (a
        #: weakly held peer is gone); see :meth:`register`.
        self._handlers: dict[
            str, tuple[Callable[[], Any], Callable[[Any, Message], None]]
        ] = {}
        self._trace: list[tuple[float, Message]] = []
        self.trace_enabled = False

    # ------------------------------------------------------------ registration

    def register(self, node_id: str, handler: Handler) -> None:
        """Register the message handler of peer ``node_id``.

        A bound method is held weakly: a peer registers its own ``handle``
        and keeps this transport, so a strong reference would make every
        dropped network a cycle only the garbage collector can free.  Once
        the peer is gone its messages are dropped like any departed peer's.
        """
        if node_id in self._handlers:
            raise NetworkError(f"peer {node_id!r} is already registered")
        if isinstance(handler, MethodType):
            # A weak reference to the peer and the plain function: resolving
            # them costs a delivery two C-level calls, no bound method.
            self._handlers[node_id] = (ref(handler.__self__), handler.__func__)
        else:
            self._handlers[node_id] = (lambda: handler, _call)

    def unregister(self, node_id: str) -> None:
        """Remove a peer from the network (undelivered messages to it are dropped)."""
        self._handlers.pop(node_id, None)

    def is_registered(self, node_id: str) -> bool:
        """True if ``node_id`` currently has a handler."""
        return node_id in self._handlers

    @property
    def peers(self) -> tuple[str, ...]:
        """All registered peer ids."""
        return tuple(self._handlers)

    # ----------------------------------------------------------------- tracing

    def enable_trace(self) -> None:
        """Record every delivered message with its delivery time (Figure 1 traces)."""
        self.trace_enabled = True

    @property
    def trace(self) -> list[tuple[float, Message]]:
        """The delivery trace recorded so far (empty unless tracing is enabled)."""
        return list(self._trace)

    def _deliver(self, message: Message, at_time: float) -> None:
        """Run the recipient handler and account for the delivery."""
        entry = self._handlers.get(message.recipient)
        owner = None if entry is None else entry[0]()
        if entry is None or owner is None:
            # The peer left the network while the message was in flight; the
            # dynamic-network semantics of Section 4 allows dropping it.
            return
        self.stats.record_message(
            message.type,
            message.sender,
            message.recipient,
            message.size_estimate(),
        )
        self.stats.advance_time(at_time)
        if self.trace_enabled:
            self._trace.append((at_time, message))
        entry[1](owner, message)

    # --------------------------------------------------------------- interface

    def send(self, message: Message) -> None:  # pragma: no cover - abstract
        """Queue ``message`` for delivery."""
        raise NotImplementedError


class SyncTransport(BaseTransport):
    """Deterministic discrete-event transport with a virtual clock: the
    ``sync`` engine's, and every shard worker's (:mod:`repro.sharding.worker`)."""

    kind = "sync"

    def __init__(
        self,
        latency: LatencyModel | None = None,
        stats: StatisticsCollector | None = None,
        max_messages: int = 1_000_000,
    ):
        super().__init__(latency=latency, stats=stats)
        self._queue: list[tuple[float, int, Message]] = []
        self.clock = 0.0
        self.max_messages = max_messages
        self.delivered_count = 0
        #: The ``delivered_count`` at which the current run's budget is spent.
        self._allowed = max_messages
        self._sent = 0

    def send(self, message: Message) -> None:
        """Schedule ``message`` for delivery ``latency`` time units from now."""
        if message.recipient not in self._handlers:
            raise UnknownPeerError(
                f"cannot send {message}: recipient is not registered"
            )
        self._push(self.clock + self.latency.delay_for(message, self._sent), message)

    def _push(self, delivery_time: float, message: Message) -> None:
        """Queue ``message``; its push index (the latency index of a send)
        breaks ties, since messages are not orderable."""
        index = self._sent
        self._sent = index + 1
        heapq.heappush(self._queue, (delivery_time, index, message))

    @property
    def pending(self) -> int:
        """Number of messages queued but not yet delivered."""
        return len(self._queue)

    def drain(self, limit: int | None = None) -> None:
        """Deliver queued messages in (time, index) order; handlers may queue more.

        ``limit`` caps how many this call delivers; without it the queue is
        drained to quiescence.  Raises :class:`NetworkError` when the current
        run would deliver more than ``max_messages``, which indicates a
        non-terminating protocol (cf. Theorem 2(3)).
        """
        queue = self._queue
        allowed = self._allowed
        stop = allowed if limit is None else min(allowed, self.delivered_count + limit)
        while queue:
            if self.delivered_count >= stop:
                if stop < allowed:
                    return
                raise NetworkError(
                    f"exceeded {self.max_messages} deliveries in one run; "
                    "the protocol does not appear to terminate"
                )
            delivery_time, _index, message = heapq.heappop(queue)
            self.clock = max(self.clock, delivery_time)
            self.delivered_count += 1
            self._deliver(message, self.clock)

    def run(self) -> float:
        """Open a run's budget and deliver messages until the network is quiescent.

        Returns the virtual-clock time of the last delivery — the simulated
        execution time of whatever protocol phase was running.  Raises
        :class:`NetworkError` if this run would deliver more than
        ``max_messages`` (see :meth:`drain`).
        """
        started = time.perf_counter()
        self._allowed = self.delivered_count + self.max_messages
        self.drain()
        self.stats.elapsed_wall_seconds += time.perf_counter() - started
        return self.clock

    def step(self) -> Message | None:
        """Deliver exactly one message (or return None when quiescent).

        The delivery counts against the budget the latest :meth:`run` opened
        (the constructor opens the first), so a stepped runaway fails too.
        """
        if not self._queue:
            return None
        message = self._queue[0][2]
        self.drain(1)
        return message
