"""Message transports: a deterministic discrete-event one and an asyncio one.

The paper's algorithm "is based on an asynchronous model of communications
(while also supporting a synchronous alternative)".  Both models are provided
over the same handler interface so the protocol code in :mod:`repro.core` is
transport-agnostic:

* :class:`SyncTransport` — a discrete-event simulator with a virtual clock.
  Messages are delivered in (delivery time, sequence) order, handlers run to
  completion one at a time, and :meth:`SyncTransport.run` drains the network
  until quiescence.  This is the deterministic mode used by tests and
  benchmarks; the virtual clock at quiescence is the experiment's
  "execution time".
* :class:`AsyncTransport` — an asyncio implementation where every delivery is
  a separate task and latency is an ``asyncio.sleep``.  It exercises genuinely
  interleaved handler execution and is what the asynchronous examples use.

Handlers are synchronous callables ``handler(message) -> None`` that may call
``transport.send`` while running; protocol state updates are local to a node,
so running one handler at a time per node is all the isolation needed.
"""

from __future__ import annotations

import asyncio
import heapq
import time
from types import MethodType
from typing import Callable
from weakref import WeakMethod

from repro.errors import NetworkError, UnknownPeerError
from repro.network.latency import ConstantLatency, LatencyModel
from repro.network.message import Message
from repro.stats.collector import StatisticsCollector

Handler = Callable[[Message], None]


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
        #: Peer id -> a callable returning the peer's handler (None once a
        #: weakly held one is gone); see :meth:`register`.
        self._handlers: dict[str, Callable[[], Handler | None]] = {}
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
            self._handlers[node_id] = WeakMethod(handler)
        else:
            self._handlers[node_id] = lambda: handler

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
        resolve = self._handlers.get(message.recipient)
        handler = resolve() if resolve is not None else None
        if handler is None:
            # The peer left the network while the message was in flight; the
            # dynamic-network semantics of Section 4 allows dropping it.
            return
        self.stats.record_message(
            message.type.value,
            message.sender,
            message.recipient,
            message.size_estimate(),
        )
        self.stats.advance_time(at_time)
        if self.trace_enabled:
            self._trace.append((at_time, message))
        handler(message)

    # --------------------------------------------------------------- interface

    def send(self, message: Message) -> None:  # pragma: no cover - abstract
        """Queue ``message`` for delivery."""
        raise NotImplementedError


class SyncTransport(BaseTransport):
    """Deterministic discrete-event transport with a virtual clock."""

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

    def send(self, message: Message) -> None:
        """Schedule ``message`` for delivery ``latency`` time units from now."""
        if message.recipient not in self._handlers:
            raise UnknownPeerError(
                f"cannot send {message}: recipient is not registered"
            )
        delivery_time = self.clock + self.latency.delay_for(message)
        heapq.heappush(self._queue, (delivery_time, message.sequence, message))

    @property
    def pending(self) -> int:
        """Number of messages queued but not yet delivered."""
        return len(self._queue)

    def run(self) -> float:
        """Deliver messages until the network is quiescent.

        Returns the virtual-clock time of the last delivery — the simulated
        execution time of whatever protocol phase was running.  Raises
        :class:`NetworkError` if more than ``max_messages`` deliveries happen,
        which indicates a non-terminating protocol (cf. Theorem 2(3)).
        """
        started = time.perf_counter()
        while self._queue:
            delivery_time, _sequence, message = heapq.heappop(self._queue)
            self.clock = max(self.clock, delivery_time)
            self.delivered_count += 1
            if self.delivered_count > self.max_messages:
                raise NetworkError(
                    f"exceeded {self.max_messages} deliveries; "
                    "the protocol does not appear to terminate"
                )
            self._deliver(message, self.clock)
        self.stats.elapsed_wall_seconds += time.perf_counter() - started
        return self.clock

    def step(self) -> Message | None:
        """Deliver exactly one message (or return None when quiescent)."""
        if not self._queue:
            return None
        delivery_time, _sequence, message = heapq.heappop(self._queue)
        self.clock = max(self.clock, delivery_time)
        self.delivered_count += 1
        self._deliver(message, self.clock)
        return message


class AsyncTransport(BaseTransport):
    """Asyncio transport: every delivery is an independent task.

    ``time_scale`` converts simulated latency units into wall-clock seconds so
    that examples finish quickly (the default makes one latency unit one
    millisecond).
    """

    kind = "async"

    def __init__(
        self,
        latency: LatencyModel | None = None,
        stats: StatisticsCollector | None = None,
        time_scale: float = 0.001,
        max_messages: int = 1_000_000,
    ):
        super().__init__(latency=latency, stats=stats)
        self.time_scale = time_scale
        self.max_messages = max_messages
        self.delivered_count = 0
        self._in_flight = 0
        self._quiescent = asyncio.Event()
        self._quiescent.set()
        self._event_loop: asyncio.AbstractEventLoop | None = None
        self._start_time: float | None = None
        self._sim_clock_offset = 0.0

    def _quiescent_event(self) -> asyncio.Event:
        """The quiescence event, re-bound when a new event loop takes over.

        Each ``asyncio.run`` creates a fresh loop; an ``asyncio.Event`` binds
        to the loop it is first awaited on, so a transport driven by several
        consecutive ``asyncio.run`` calls (one per façade run) needs a fresh
        event per loop.  Re-binding is only legal while nothing is in flight.
        The simulated clock is frozen across the idle gap between loops —
        like the synchronous transport's, it only advances with deliveries —
        by restarting the wall-clock anchor from the time already simulated.
        """
        loop = asyncio.get_running_loop()
        if self._event_loop is not loop:
            if self._in_flight:
                raise NetworkError(
                    "the transport has deliveries in flight on another event loop"
                )
            self._event_loop = loop
            self._quiescent = asyncio.Event()
            self._quiescent.set()
            if self._start_time is not None:
                self._sim_clock_offset = self.stats.simulated_time
                self._start_time = None
        return self._quiescent

    def send(self, message: Message) -> None:
        """Schedule an asynchronous delivery of ``message``."""
        if message.recipient not in self._handlers:
            raise UnknownPeerError(
                f"cannot send {message}: recipient is not registered"
            )
        loop = asyncio.get_running_loop()
        event = self._quiescent_event()
        self._in_flight += 1
        event.clear()
        loop.create_task(self._deliver_later(message))

    async def _deliver_later(self, message: Message) -> None:
        delay = self.latency.delay_for(message)
        await asyncio.sleep(delay * self.time_scale)
        try:
            self.delivered_count += 1
            if self.delivered_count > self.max_messages:
                raise NetworkError(
                    f"exceeded {self.max_messages} deliveries; "
                    "the protocol does not appear to terminate"
                )
            now = time.perf_counter()
            if self._start_time is None:
                self._start_time = now
            simulated = (
                self._sim_clock_offset + (now - self._start_time) / self.time_scale
            )
            self._deliver(message, simulated)
        finally:
            self._in_flight -= 1
            if self._in_flight == 0:
                self._quiescent_event().set()

    async def wait_quiescent(self, timeout: float | None = None) -> None:
        """Wait until no message is in flight (poll-free via an event)."""
        while True:
            event = self._quiescent_event()
            if timeout is None:
                await event.wait()
            else:
                await asyncio.wait_for(event.wait(), timeout)
            # A handler triggered by the last delivery may have sent new
            # messages between the event being set and us waking up; loop
            # until the event is still set after a zero-length yield.
            await asyncio.sleep(0)
            if self._in_flight == 0:
                return

    @property
    def pending(self) -> int:
        """Number of deliveries currently in flight."""
        return self._in_flight
