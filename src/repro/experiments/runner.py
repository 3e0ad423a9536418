"""Shared experiment runner: run both phases, collect metrics, print tables.

Every workload-driven experiment builds on :func:`run_dblp_update` (DBLP
workload over a topology, :meth:`~repro.api.ScenarioSpec.from_topology`),
which runs the paper's distributed algorithm through the unified
:class:`repro.api.Session` façade; the baselines of :mod:`repro.baselines`
are compared with it in E9 (:mod:`repro.experiments.baseline_comparison`).  The returned
:class:`UpdateRunResult` carries exactly the quantities the paper's
statistics module accumulated: simulated execution time, message
counts by phase and type, data volumes, per-node counters, and the
fix-point indicators.

Every experiment's ``main()`` prints its table through :func:`report`: one
column spec (header → attribute name or function of a row), the rows, and
the footer notes.  Rows that carry an ``ok`` attribute grade themselves —
after printing, :func:`report` raises :class:`~repro.errors.ReproError`
naming each row whose ``ok`` is False, so ``python -m repro run`` exits 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Iterable, Mapping

from repro.api.session import Session
from repro.api.spec import ScenarioSpec
from repro.core.fixpoint import all_nodes_closed, satisfies_all_rules
from repro.errors import ReproError
from repro.network.message import MessageType
from repro.stats.collector import NodeStats
from repro.stats.report import format_table
from repro.workloads.topologies import TopologySpec


@dataclass
class UpdateRunResult:
    """Metrics of one discovery + update run."""

    label: str
    node_count: int
    depth: int
    discovery_messages: int
    update_time: float
    update_messages: int
    total_messages: int
    total_bytes: int
    query_messages: int
    answer_messages: int
    duplicate_queries: int
    tuples_transferred: int
    tuples_inserted: int
    all_closed: bool
    fixpoint_reached: bool
    per_node: dict[str, NodeStats] = field(default_factory=dict)


def run_dblp_update(
    topology: TopologySpec,
    *,
    records_per_node: int = 50,
    overlap_probability: float = 0.0,
    overlap_fraction: float = 0.5,
    seed: int = 0,
    propagation: str = "once",
    label: str | None = None,
    check_fixpoint: bool = False,
) -> tuple[ScenarioSpec, UpdateRunResult]:
    """Build the DBLP workload for a topology and run discovery + update."""
    spec = ScenarioSpec.from_topology(
        topology,
        records_per_node=records_per_node,
        overlap_probability=overlap_probability,
        overlap_fraction=overlap_fraction,
        seed=seed,
        propagation=propagation,
    )
    session = Session.from_spec(spec, check=False)
    system = session.system
    discovery_messages = session.run("discovery").stats.total_messages
    update_clock_start = system.transport.clock
    result = session.run("update")
    snapshot = session.snapshot_stats()
    return spec, UpdateRunResult(
        label=label or spec.name,
        node_count=len(system.nodes),
        depth=topology.depth,
        discovery_messages=discovery_messages,
        update_time=result.completion_time - update_clock_start,
        update_messages=snapshot.total_messages - discovery_messages,
        total_messages=snapshot.total_messages,
        total_bytes=snapshot.messages.total_bytes,
        query_messages=snapshot.messages.by_type.get(MessageType.QUERY.value, 0),
        answer_messages=snapshot.messages.by_type.get(MessageType.ANSWER.value, 0),
        duplicate_queries=snapshot.total_duplicate_queries,
        tuples_transferred=snapshot.total_tuples_transferred,
        tuples_inserted=snapshot.total_tuples_inserted,
        all_closed=all_nodes_closed(system),
        fixpoint_reached=satisfies_all_rules(system) if check_fixpoint else True,
        per_node=snapshot.nodes,
    )


def report(
    title: str,
    columns: Mapping[str, str | Callable[[Any], object]],
    rows: Iterable[Any],
    *notes: str,
) -> str:
    """Print one experiment table with its footer notes and return the text.

    ``columns`` maps each header to the attribute (dotted names allowed) or
    the function that yields the cell of a row.  Raises
    :class:`~repro.errors.ReproError`, after printing, when any row carries
    an ``ok`` attribute that is False; the message names each such row by
    its first cell.
    """
    rows = list(rows)
    cells = [
        attrgetter(column) if isinstance(column, str) else column
        for column in columns.values()
    ]
    table_rows = [[cell(row) for cell in cells] for row in rows]
    text = "\n".join([format_table(list(columns), table_rows, title=title), *notes])
    print(text)
    failed = [
        str(table_row[0])
        for row, table_row in zip(rows, table_rows)
        if getattr(row, "ok", True) is False
    ]
    if failed:
        raise ReproError(f"{title.split()[0]} row(s) not ok: {', '.join(failed)}")
    return text
