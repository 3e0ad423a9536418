"""Execution engines: run a protocol phase to quiescence on any transport.

One :class:`ExecutionEngine` protocol — a blocking ``run`` — so
:meth:`repro.api.session.Session.run` works the same over every transport:

* :class:`SyncEngine` drives a :class:`~repro.network.transport.SyncTransport`
  (the discrete-event simulator) and reads the virtual clock,
* the scaling layer adds :class:`repro.sharding.process.ProcessEngine`
  (shard workers in forked processes or on TCP shard hosts, kept warm until
  the session or engine closes).

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

from repro.coordination.changeset import Change
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

    The ``sync`` engine and every shard worker start a phase here.
    Discovery defaults to the super-peer initiating, as in the paper, and
    starts every peer from no discovery state (:func:`reset_discovery`); the
    update defaults to every node (the super-peer's global update request).
    """
    if phase == "discovery":
        origin_list = list(origins) if origins is not None else [system.super_peer]
        reset_discovery(system)
        for origin in origin_list:
            system.node(origin).discovery.start()
    elif phase == "update":
        origin_list = list(origins) if origins is not None else sorted(system.nodes)
        for origin in origin_list:
            system.node(origin).update.start()
    else:
        raise ReproError(f"unknown phase {phase!r}; expected one of {PHASES}")
    return origin_list


def reset_discovery(system: P2PSystem) -> None:
    """Forget every peer's earlier discovery runs, so a run's paths follow
    from the rules installed when it starts; the system holding the data and
    a process engine's coordinator both reset."""
    for node in system.nodes.values():
        node.state.reset_discovery()


def start_run(
    system: P2PSystem,
    phase: str,
    origins: Iterable[NodeId] | None,
    change: Change | None,
    *,
    nodes: Iterable[NodeId] | None = None,
) -> list[NodeId]:
    """Start ``phase`` on the system holding the data; return the nodes started.

    The one delta-path decision, made by the ``sync`` engine and by every
    shard worker.  ``change`` (what changed since the previous run; None:
    not known) is folded into ``system.pending``, which only an update
    start consumes.  The update seeds the delta path
    (:meth:`~repro.core.system.P2PSystem.seed_update_delta`) only when

    * it starts everywhere (``origins is None``),
    * the previous update did too and converged (``system.primed``; a
      failed run unprimes the ``sync`` system, and takes a worker down with
      its pool),
    * and the pending change is
      :attr:`~repro.coordination.changeset.Change.rows_only`;

    otherwise :func:`start_phase` starts it at ``nodes`` (default
    ``origins``; a shard worker passes its owned share of them).  The
    decision is left on ``system.mode``, which a result reports.
    """
    if change is None:
        system.primed = False
    elif not change.empty:
        system.pending = system.pending.union(change)
    started = origins if nodes is None else nodes
    system.mode = "naive"
    if phase != "update":
        return start_phase(system, phase, started)
    pending, system.pending = system.pending, Change()
    if origins is None and system.primed and pending.rows_only:
        system.mode = "incremental"
        return system.seed_update_delta(pending, nodes=started)
    system.primed = origins is None
    return start_phase(system, phase, started)


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
        self,
        system: P2PSystem,
        phase: str,
        origins: Iterable[NodeId] | None = None,
        change: Change | None = None,
    ) -> tuple[float, StatsSnapshot]:
        """Blocking run; returns (simulated completion time, stats snapshot).

        ``change`` is what changed in ``system`` since the previous run
        (None: not known, so the run is naive); it feeds
        :func:`start_run`'s decision, which the run leaves on
        ``system.mode``.
        """
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
        self,
        system: P2PSystem,
        phase: str,
        origins: Iterable[NodeId] | None = None,
        change: Change | None = None,
    ) -> tuple[float, StatsSnapshot]:
        transport = self._check(system)
        tracer = tracer_of(system)
        try:
            start_run(system, phase, origins, change)
            with tracer.span("chase", engine=self.name) as span:
                delivered = transport.delivered_count
                completion = transport.run()
                span.set(delivered=transport.delivered_count - delivered)
        except BaseException:
            system.primed = False  # no converged update to extend
            raise
        finalize_phase(system, phase)
        return completion, system.stats.snapshot()


@dataclass(frozen=True)
class TransportKind:
    """One row of the transport registry: how a named transport is built and run."""

    name: str
    #: ``build(latency=, max_messages=, shards=, hosts=)``: the transport.
    build: Callable[..., BaseTransport]
    #: The engine that drives a transport built by this row.
    engine: Callable[[BaseTransport], ExecutionEngine]
    #: The peers are partitioned across ``shards=`` workers that live outside
    #: this interpreter, so they can be killed, dropped on or partitioned
    #: (``faults=``).
    partitioned: bool = False


@functools.cache
def transport_kinds() -> dict[str, TransportKind]:
    """The transport registry, keyed by the name a spec selects."""
    # Imported lazily: repro.sharding imports this module for the phase
    # helpers, so a top-level import would be circular.
    from repro.sharding.process import ProcessEngine, ProcessTransport

    def sync(latency, max_messages, **_):
        return SyncTransport(latency=latency, max_messages=max_messages)

    def process(name: str) -> TransportKind:
        def build(latency, max_messages, shards, hosts):
            return ProcessTransport(
                name, shards, hosts=hosts, latency=latency, max_messages=max_messages
            )

        def engine(transport):
            return ProcessEngine(transport.kind)

        return TransportKind(name, build, engine, partitioned=True)

    rows = (
        TransportKind("sync", sync, lambda _: SyncEngine()),
        process("pooled"),
        process("socket"),
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
