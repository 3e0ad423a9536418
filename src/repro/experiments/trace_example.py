"""Experiment E2 — the Figure 1 execution trace.

Figure 1 of the paper shows a sample execution of the discovery and update
algorithms on the example system, as a message sequence between nodes A, B, C
and E: ``requestNodes`` flowing away from A, ``processAnswer`` echoes flowing
back, then ``Query`` / ``Answer`` exchanges of the update phase.

This experiment re-runs both phases on the example with message tracing
enabled and reports the ordered trace restricted to the same four nodes, plus
counts per message type, so the shape of Figure 1 (requests cascade forward,
answers cascade back, updates keep exchanging until the fix-point) can be
checked mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.session import Session
from repro.stats.report import format_table
from repro.workloads.scenarios import build_paper_example


@dataclass(frozen=True)
class TraceEntry:
    """One delivered message in the trace."""

    time: float
    message_type: str
    sender: str
    recipient: str


@dataclass(frozen=True)
class TraceResult:
    """The recorded execution trace and simple aggregates."""

    entries: tuple[TraceEntry, ...]
    counts_by_type: dict[str, int]
    discovery_time: float
    update_time: float

    def entries_between(self, nodes: frozenset[str]) -> tuple[TraceEntry, ...]:
        """The sub-trace involving only the given nodes (Figure 1 uses A, B, C, E)."""
        return tuple(
            entry
            for entry in self.entries
            if entry.sender in nodes and entry.recipient in nodes
        )


def run_trace_example(*, propagation: str = "per_path") -> TraceResult:
    """Run discovery + update on the example with tracing enabled."""
    system = build_paper_example(propagation=propagation)
    system.transport.enable_trace()
    session = Session(system)
    discovery_time = session.run("discovery", origins=["A"]).completion_time
    update_time = session.run("update").completion_time

    entries = tuple(
        TraceEntry(
            time=at_time,
            message_type=message.type.value,
            sender=message.sender,
            recipient=message.recipient,
        )
        for at_time, message in system.transport.trace
    )
    counts: dict[str, int] = {}
    for entry in entries:
        counts[entry.message_type] = counts.get(entry.message_type, 0) + 1
    return TraceResult(
        entries=entries,
        counts_by_type=counts,
        discovery_time=discovery_time,
        update_time=update_time,
    )


def main(limit: int = 40) -> str:
    """Print the first ``limit`` trace entries between nodes A, B, C and E."""
    result = run_trace_example()
    figure_nodes = frozenset({"A", "B", "C", "E"})
    rows = [
        [f"{entry.time:.1f}", entry.message_type, entry.sender, entry.recipient]
        for entry in result.entries_between(figure_nodes)[:limit]
    ]
    table = format_table(
        ["t", "message", "from", "to"],
        rows,
        title="E2 — execution trace on the example (nodes A, B, C, E)",
    )
    counts = ", ".join(
        f"{name}={count}" for name, count in sorted(result.counts_by_type.items())
    )
    table += f"\nmessage counts: {counts}"
    print(table)
    return table


if __name__ == "__main__":  # pragma: no cover
    main()
