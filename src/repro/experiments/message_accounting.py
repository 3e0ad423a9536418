"""Experiment E6 — per-node statistics (the prototype's statistical module).

Section 5 describes a per-node module that "accumulates information about
number of executed queries and updates, total time which was required to
answer a certain query or fulfill an update request, volumes of data
transferred onto pipes, number of queries received and sent for the same
original query (due to different paths and loops)".

This experiment runs the global update on a small clique — the topology with
the most loops, hence the most duplicate queries — under the faithful
``per_path`` propagation policy, and reports exactly those per-node counters,
plus the same run under the ``once`` policy to show how much of the traffic
the delta optimisation removes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.runner import UpdateRunResult, run_dblp_update
from repro.stats.report import format_table
from repro.workloads.topologies import clique_topology


@dataclass(frozen=True)
class AccountingResult:
    """Per-node accounting for the two propagation policies."""

    per_path: UpdateRunResult
    once: UpdateRunResult

    @property
    def duplicate_query_ratio(self) -> float:
        """Duplicate queries under per-path propagation per query under once."""
        base = max(1, self.once.query_messages)
        return self.per_path.duplicate_queries / base


def run_message_accounting(
    *,
    clique_size: int = 5,
    records_per_node: int = 20,
    seed: int = 0,
) -> AccountingResult:
    """Run the same clique under ``per_path`` and ``once`` propagation."""
    spec = clique_topology(clique_size)
    _, per_path = run_dblp_update(
        spec,
        records_per_node=records_per_node,
        seed=seed,
        propagation="per_path",
        label=f"clique{clique_size}/per_path",
    )
    _, once = run_dblp_update(
        spec,
        records_per_node=records_per_node,
        seed=seed,
        propagation="once",
        label=f"clique{clique_size}/once",
    )
    return AccountingResult(per_path=per_path, once=once)


def main(clique_size: int = 5, records_per_node: int = 20) -> str:
    """Print the per-node statistics table for both propagation policies."""
    result = run_message_accounting(
        clique_size=clique_size, records_per_node=records_per_node
    )
    rows = [
        [
            policy,
            node_id,
            counters["queries_executed"],
            counters["duplicate_queries"],
            counters["updates_applied"],
            counters["tuples_received"],
            counters["tuples_inserted"],
            counters["messages_sent"],
        ]
        for policy, run in (("per_path", result.per_path), ("once", result.once))
        for node_id, counters in sorted(run.per_node.items())
    ]
    table = format_table(
        [
            "policy",
            "node",
            "queries",
            "dup queries",
            "updates",
            "tuples recv",
            "tuples ins",
            "msgs sent",
        ],
        rows,
        title=f"E6 — per-node statistics on a {clique_size}-clique",
    )
    table += (
        f"\ntotal messages: per_path={result.per_path.total_messages}, "
        f"once={result.once.total_messages}; "
        f"total bytes: per_path={result.per_path.total_bytes}, "
        f"once={result.once.total_bytes}"
    )
    print(table)
    return table

