"""Experiment E10 — worst-case growth (Lemma 1.3 and Lemma 4).

Lemma 1(3) bounds the per-node complexity of the update by 2EXPTIME in the
number of nodes, and Lemma 4 bounds the cost of re-reaching the fix-point
after a change by 2EXPTIME in the size of the change.  These are worst-case
bounds on dense, cyclic topologies; the experiment makes the growth visible:

* messages and work versus clique size (the densest topology), under both the
  faithful ``per_path`` propagation (whose duplicate-query count grows with
  the number of dependency paths, i.e. factorially) and the optimised
  ``once`` policy (polynomial),
* messages needed to re-reach the fix-point versus the length of a change
  sequence applied after an initial update.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.api.spec import ScenarioSpec
from repro.core.dynamics import NetworkChange, apply_change_operation
from repro.experiments.runner import run_dblp_update
from repro.stats.report import format_table
from repro.workloads.topologies import (
    clique_topology,
    coordination_rules_for,
    tree_topology,
)


@dataclass(frozen=True)
class CliqueGrowthPoint:
    """Cost of one clique size under one propagation policy."""

    policy: str
    size: int
    update_messages: int
    duplicate_queries: int
    update_time: float


def run_clique_growth(
    *,
    sizes: Sequence[int] = (2, 3, 4, 5, 6),
    records_per_node: int = 5,
    seed: int = 0,
) -> list[CliqueGrowthPoint]:
    """Sweep clique sizes under both propagation policies."""
    points = []
    for policy in ("per_path", "once"):
        for size in sizes:
            _, result = run_dblp_update(
                clique_topology(size),
                records_per_node=records_per_node,
                seed=seed,
                propagation=policy,
                label=f"clique{size}/{policy}",
            )
            points.append(
                CliqueGrowthPoint(
                    policy=policy,
                    size=size,
                    update_messages=result.update_messages,
                    duplicate_queries=result.duplicate_queries,
                    update_time=result.update_time,
                )
            )
    return points


@dataclass(frozen=True)
class ChangeGrowthPoint:
    """Cost of re-reaching the fix-point after a change of a given length."""

    change_length: int
    extra_messages: int
    completion_time: float


def run_change_growth(
    *,
    lengths: Sequence[int] = (1, 2, 4, 8),
    depth: int = 2,
    records_per_node: int = 10,
    seed: int = 0,
) -> list[ChangeGrowthPoint]:
    """Measure messages to re-converge after change sequences of growing length.

    Every change operation re-adds (under a fresh id) a copy of an existing
    rule whose head is at the root, so each operation forces the root to
    re-pull and re-check its fix-point.
    """
    points = []
    for length in lengths:
        spec = tree_topology(depth, fanout=2)
        system = ScenarioSpec.from_topology(
            spec, records_per_node=records_per_node, seed=seed
        ).build_system()
        for node_id in sorted(system.nodes):
            system.node(node_id).update.start()
        system.transport.run()  # type: ignore[attr-defined]
        before = system.snapshot_stats().total_messages

        rules = coordination_rules_for(spec)
        change = NetworkChange()
        for index in range(length):
            template = rules[index % len(rules)]
            change.add_link(
                type(template)(
                    f"{template.rule_id}+copy{index}",
                    template.target,
                    template.head,
                    template.body,
                    template.comparisons,
                )
            )
        for operation in change:
            apply_change_operation(system, operation)
        completion = system.transport.run()  # type: ignore[attr-defined]
        after = system.snapshot_stats().total_messages
        points.append(
            ChangeGrowthPoint(
                change_length=length,
                extra_messages=after - before,
                completion_time=completion,
            )
        )
    return points


def main() -> str:
    """Print both growth tables."""
    clique_points = run_clique_growth()
    rows = [
        [p.policy, p.size, p.update_messages, p.duplicate_queries, p.update_time]
        for p in clique_points
    ]
    table = format_table(
        ["policy", "clique size", "update msgs", "dup queries", "update time"],
        rows,
        title="E10a — growth with clique size",
    )
    change_points = run_change_growth()
    rows = [
        [p.change_length, p.extra_messages, p.completion_time] for p in change_points
    ]
    table += "\n\n" + format_table(
        ["change length", "extra messages", "completion time"],
        rows,
        title="E10b — cost of re-reaching the fix-point after a change",
    )
    print(table)
    return table

