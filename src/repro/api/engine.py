"""Execution engines: run a protocol phase to quiescence on any transport.

One :class:`ExecutionEngine` protocol — ``run`` (blocking) and ``run_async``
(awaitable), identical semantics — so :meth:`repro.api.session.Session.run`
works the same over every transport:

* :class:`SyncEngine` drives a :class:`~repro.network.transport.SyncTransport`
  (the deterministic discrete-event simulator) and reads the virtual clock,
* :class:`AsyncEngine` drives an
  :class:`~repro.network.transport.AsyncTransport`; its :meth:`AsyncEngine.run`
  wraps the coroutine in ``asyncio.run`` so callers without an event loop use
  the same blocking call signature,
* the scaling layer adds :class:`repro.sharding.engine.ShardedEngine` (K
  in-process shard workers) and :class:`repro.sharding.process.ProcessEngine`
  (shard workers in spawned processes or on TCP shard hosts, one-shot or
  kept warm).

Which transport a name builds and which engine drives it is one table,
:func:`transport_kinds`; :func:`engine_for` and
:meth:`P2PSystem.build <repro.core.system.P2PSystem.build>` look things up
there, and the spec/CLI validation reads which names are partitioned or
process-backed from it.  ``docs/engines.md`` is the decision guide.
"""

from __future__ import annotations

import asyncio
import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Protocol, runtime_checkable

from repro.coordination.rule import NodeId
from repro.errors import ReproError
from repro.network.transport import AsyncTransport, BaseTransport, SyncTransport
from repro.obs import tracer_of
from repro.stats.collector import StatsSnapshot

if TYPE_CHECKING:
    from repro.core.system import P2PSystem

#: The two protocol phases of the paper (Section 3).
PHASES = ("discovery", "update")


def start_phase(
    system: P2PSystem, phase: str, origins: Iterable[NodeId] | None
) -> list[NodeId]:
    """Kick off ``phase`` at its origin nodes and return the origins used.

    Discovery defaults to the super-peer initiating, as in the paper; the
    update defaults to every node (the super-peer's global update request).
    """
    if phase == "discovery":
        origin_list = list(origins) if origins is not None else [system.super_peer]
        for origin in origin_list:
            system.node(origin).discovery.start()
    elif phase == "update":
        origin_list = list(origins) if origins is not None else sorted(system.nodes)
        for origin in origin_list:
            system.node(origin).update.start()
    else:
        raise ReproError(f"unknown phase {phase!r}; expected one of {PHASES}")
    return origin_list


def finalize_phase(system: P2PSystem, phase: str) -> None:
    """Post-quiescence bookkeeping (discovery finalises every ``Paths`` relation)."""
    if phase == "discovery":
        for node in system.nodes.values():
            node.discovery.finalize_paths()


@runtime_checkable
class ExecutionEngine(Protocol):
    """Drives one protocol phase of a system to quiescence."""

    name: str

    def run(
        self, system: P2PSystem, phase: str, origins: Iterable[NodeId] | None = None
    ) -> tuple[float, StatsSnapshot]:
        """Blocking run; returns (simulated completion time, stats snapshot)."""
        ...

    async def run_async(
        self, system: P2PSystem, phase: str, origins: Iterable[NodeId] | None = None
    ) -> tuple[float, StatsSnapshot]:
        """Awaitable run with the same semantics as :meth:`run`."""
        ...


class SyncEngine:
    """Engine for the deterministic discrete-event transport."""

    name = "sync"

    def _check(self, system: P2PSystem) -> SyncTransport:
        transport = system.transport
        if not isinstance(transport, SyncTransport):
            raise ReproError(
                "the sync engine needs a SyncTransport; "
                "use AsyncEngine (or Session.run, which picks the engine) instead"
            )
        return transport

    def run(
        self, system: P2PSystem, phase: str, origins: Iterable[NodeId] | None = None
    ) -> tuple[float, StatsSnapshot]:
        transport = self._check(system)
        tracer = tracer_of(system)
        start_phase(system, phase, origins)
        with tracer.span("chase", engine=self.name) as span:
            completion = transport.run()
            span.set(delivered=transport.delivered_count)
        finalize_phase(system, phase)
        return completion, system.stats.snapshot()

    async def run_async(
        self, system: P2PSystem, phase: str, origins: Iterable[NodeId] | None = None
    ) -> tuple[float, StatsSnapshot]:
        return self.run(system, phase, origins)


class AsyncEngine:
    """Engine for the asyncio transport (every delivery an independent task)."""

    name = "async"

    def _check(self, system: P2PSystem) -> AsyncTransport:
        transport = system.transport
        if not isinstance(transport, AsyncTransport):
            raise ReproError(
                "the async engine needs an AsyncTransport; "
                "use SyncEngine (or Session.run, which picks the engine) instead"
            )
        return transport

    def run(
        self, system: P2PSystem, phase: str, origins: Iterable[NodeId] | None = None
    ) -> tuple[float, StatsSnapshot]:
        self._check(system)
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            pass
        else:
            raise ReproError(
                "the blocking run() was called from inside an event loop; "
                "use 'await session.run_async(...)' there"
            )
        return asyncio.run(self.run_async(system, phase, origins))

    async def run_async(
        self, system: P2PSystem, phase: str, origins: Iterable[NodeId] | None = None
    ) -> tuple[float, StatsSnapshot]:
        transport = self._check(system)
        tracer = tracer_of(system)
        start_phase(system, phase, origins)
        with tracer.span("chase", engine=self.name) as span:
            await transport.wait_quiescent()
            span.set(delivered=transport.delivered_count)
        finalize_phase(system, phase)
        snapshot = system.stats.snapshot()
        return snapshot.simulated_time, snapshot


@dataclass(frozen=True)
class TransportKind:
    """One row of the transport registry: how a named transport is built and run."""

    name: str
    #: ``build(latency=, max_messages=, shards=, pool=, hosts=)``: the transport.
    build: Callable[..., BaseTransport]
    #: The engine that drives a transport built by this row.
    engine: Callable[[BaseTransport], ExecutionEngine]
    #: The peers are partitioned across ``shards=`` workers.
    partitioned: bool = False
    #: The workers live outside this interpreter, so they can be kept warm
    #: (``pool=``) and killed, dropped on or partitioned (``faults=``).
    process_backed: bool = False


@functools.cache
def transport_kinds() -> dict[str, TransportKind]:
    """The transport registry, keyed by the name a spec or ``build`` selects."""
    # Imported lazily: repro.sharding imports this module for the phase
    # helpers, so a top-level import would be circular.
    from repro.sharding.engine import ShardedEngine
    from repro.sharding.process import ProcessEngine, ProcessTransport
    from repro.sharding.transport import ShardedTransport

    def plain(transport_class):
        def build(latency, max_messages, **_):
            return transport_class(latency=latency, max_messages=max_messages)

        return build

    def sharded(latency, max_messages, shards, **_):
        return ShardedTransport(
            shard_count=2 if shards is None else shards,
            latency=latency,
            max_messages=max_messages,
        )

    def process(name: str, kind: str, warm: bool = False) -> TransportKind:
        def build(latency, max_messages, shards, pool, hosts):
            return ProcessTransport(
                kind,
                shards,
                pool=pool or warm,
                hosts=hosts,
                latency=latency,
                max_messages=max_messages,
            )

        def engine(transport):
            return ProcessEngine(transport.kind, pool=transport.pool)

        return TransportKind(name, build, engine, partitioned=True, process_backed=True)

    rows = (
        TransportKind("sync", plain(SyncTransport), lambda _: SyncEngine()),
        TransportKind("async", plain(AsyncTransport), lambda _: AsyncEngine()),
        TransportKind("sharded", sharded, lambda _: ShardedEngine(), partitioned=True),
        process("multiproc", "multiproc"),
        # "pooled" is "multiproc" with the pool flag already set.
        process("pooled", "multiproc", warm=True),
        process("socket", "socket"),
    )
    return {row.name: row for row in rows}


def transport_names(
    *, partitioned: bool = False, process_backed: bool = False
) -> tuple[str, ...]:
    """The registered transport names, optionally only those with a property."""
    return tuple(
        kind.name
        for kind in transport_kinds().values()
        if (kind.partitioned or not partitioned)
        and (kind.process_backed or not process_backed)
    )


def transport_kind(name: str) -> TransportKind:
    """The registry row for a transport name."""
    try:
        return transport_kinds()[name]
    except KeyError:
        raise ReproError(
            f"unknown transport kind {name!r}; expected one of {transport_names()}"
        ) from None


def engine_for(transport: BaseTransport) -> ExecutionEngine:
    """The engine matching a transport instance."""
    kind = transport_kinds().get(transport.kind)
    if kind is None:
        raise ReproError(
            f"no execution engine for transport {type(transport).__name__!r}"
        )
    return kind.engine(transport)
