"""Execution engines: run a protocol phase to quiescence on any transport.

One :class:`ExecutionEngine` protocol — a blocking ``run`` — so
:meth:`repro.api.session.Session.run` works the same over every transport:

* :class:`SyncEngine` drives a :class:`~repro.network.transport.SyncTransport`
  (the discrete-event simulator) and reads the virtual clock,
* the scaling layer adds :class:`repro.sharding.process.ProcessEngine`
  (shard workers in forked processes or on TCP shard hosts, one-shot or kept
  warm).

Which transport a name builds and which engine drives it is one table,
:func:`transport_kinds`; :func:`engine_for` and
:meth:`ScenarioSpec.build_system <repro.api.spec.ScenarioSpec.build_system>`
look things up there, and the spec/CLI validation reads which names are
partitioned from it.
``docs/engines.md`` is the decision guide.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Protocol, runtime_checkable

from repro.coordination.rule import NodeId
from repro.errors import ReproError
from repro.network.transport import BaseTransport, SyncTransport
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


class SyncEngine:
    """Engine for the deterministic discrete-event transport."""

    name = "sync"

    def _check(self, system: P2PSystem) -> SyncTransport:
        transport = system.transport
        if not isinstance(transport, SyncTransport):
            raise ReproError(
                "the sync engine needs a SyncTransport; "
                "use Session.run, which picks the engine, instead"
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


@dataclass(frozen=True)
class TransportKind:
    """One row of the transport registry: how a named transport is built and run."""

    name: str
    #: ``build(latency=, max_messages=, shards=, pool=, hosts=)``: the transport.
    build: Callable[..., BaseTransport]
    #: The engine that drives a transport built by this row.
    engine: Callable[[BaseTransport], ExecutionEngine]
    #: The peers are partitioned across ``shards=`` workers that live outside
    #: this interpreter, so they can be kept warm (``pool=``) and killed,
    #: dropped on or partitioned (``faults=``).
    partitioned: bool = False


#: Transport names that were removed, and what replaces each.
_RETIRED = {
    "async": (
        "transport='sync' with a latency= model; a seeded UniformLatency "
        "gives one delivery order per seed"
    ),
    "sharded": "transport='multiproc' or 'pooled' with shards=K",
}


@functools.cache
def transport_kinds() -> dict[str, TransportKind]:
    """The transport registry, keyed by the name a spec selects."""
    # Imported lazily: repro.sharding imports this module for the phase
    # helpers, so a top-level import would be circular.
    from repro.sharding.process import ProcessEngine, ProcessTransport

    def sync(latency, max_messages, **_):
        return SyncTransport(latency=latency, max_messages=max_messages)

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

        return TransportKind(name, build, engine, partitioned=True)

    rows = (
        TransportKind("sync", sync, lambda _: SyncEngine()),
        process("multiproc", "multiproc"),
        # "pooled" is "multiproc" with the pool flag already set.
        process("pooled", "multiproc", warm=True),
        process("socket", "socket"),
    )
    return {row.name: row for row in rows}


def transport_names(*, partitioned: bool = False) -> tuple[str, ...]:
    """The registered transport names, optionally only the partitioned ones."""
    return tuple(
        kind.name
        for kind in transport_kinds().values()
        if kind.partitioned or not partitioned
    )


def transport_kind(name: str) -> TransportKind:
    """The registry row for a transport name.

    A removed name raises a :class:`ReproError` naming its replacement.
    """
    try:
        return transport_kinds()[name]
    except KeyError:
        if name in _RETIRED:
            raise ReproError(
                f"transport {name!r} was removed; use {_RETIRED[name]}"
            ) from None
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
