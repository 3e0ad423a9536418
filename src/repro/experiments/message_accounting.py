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

from repro.experiments.runner import UpdateRunResult, report, run_dblp_update
from repro.workloads.topologies import clique_topology


@dataclass(frozen=True)
class AccountingResult:
    """Per-node accounting for the two propagation policies."""

    per_path: UpdateRunResult
    once: UpdateRunResult


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
    return report(
        f"E6 — per-node statistics on a {clique_size}-clique",
        {
            "policy": lambda row: row[0],
            "node": lambda row: row[1],
            "queries": lambda row: row[2].queries_executed,
            "dup queries": lambda row: row[2].duplicate_queries,
            "updates": lambda row: row[2].updates_applied,
            "tuples recv": lambda row: row[2].tuples_received,
            "tuples ins": lambda row: row[2].tuples_inserted,
            "msgs sent": lambda row: row[2].messages_sent,
        },
        (
            (policy, node_id, stats)
            for policy, run in (("per_path", result.per_path), ("once", result.once))
            for node_id, stats in sorted(run.per_node.items())
        ),
        f"total messages: per_path={result.per_path.total_messages}, "
        f"once={result.once.total_messages}; "
        f"total bytes: per_path={result.per_path.total_bytes}, "
        f"once={result.once.total_bytes}",
    )
