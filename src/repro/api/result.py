"""The uniform result type every façade run returns.

Whatever executes — the distributed protocol on a synchronous or asyncio
transport, or one of the reference strategies (centralized, acyclic,
query-time) — a :class:`RunResult` reports the same quantities: the simulated
completion time, a :class:`~repro.stats.collector.StatsSnapshot`, the final
per-node relation contents and the run's *deltas*: the
:class:`~repro.coordination.changeset.Change` it made.  Experiments,
benchmarks and tests can therefore compare strategies without knowing how
each one executes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.coordination.changeset import Change, Snapshot
from repro.coordination.rule import NodeId
from repro.core.fixpoint import ground_part
from repro.database.relation import Row
from repro.stats.collector import StatsSnapshot


@dataclass(frozen=True)
class RunResult:
    """Outcome of one façade run (a protocol phase or a strategy update).

    ``completion_time`` is the simulated clock at quiescence for transport
    runs and ``0.0`` for the reference strategies, which do not exchange
    messages; ``wall_seconds`` is always the measured wall-clock duration.
    ``deltas`` is the :class:`~repro.coordination.changeset.Change` the run
    made; under the paper's update semantics a run only adds rows, so it
    holds ``inserts`` alone.  ``extras`` carries strategy-specific metrics
    (rounds, rule applications, query-time messages, ...).
    """

    phase: str
    strategy: str | None
    engine: str
    completion_time: float
    wall_seconds: float
    stats: StatsSnapshot
    databases: Snapshot
    deltas: Change
    extras: Mapping[str, object] = field(default_factory=dict)

    @property
    def label(self) -> str:
        """A short human-readable tag, e.g. ``update/centralized``."""
        return f"{self.phase}/{self.strategy}" if self.strategy else self.phase

    @property
    def tuples_added(self) -> int:
        """Total number of rows the run added across all nodes."""
        return self.deltas.inserted_rows

    def ground_databases(self) -> dict[NodeId, dict[str, frozenset[Row]]]:
        """The final databases restricted to their null-free rows.

        Two strategies that reach the same fix-point agree on this part even
        when they invent differently-labelled nulls, so parity checks compare
        it (the same :func:`repro.core.fixpoint.ground_part` the soundness
        checks use).
        """
        return ground_part(self.databases)

    def __repr__(self) -> str:
        return (
            f"RunResult({self.label!r}, engine={self.engine!r}, "
            f"time={self.completion_time:.1f}, +{self.tuples_added} tuples, "
            f"{self.stats.total_messages} messages)"
        )
