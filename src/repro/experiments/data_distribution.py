"""Experiment E5 — the two data distributions (0% vs 50% overlap).

"We considered two different data distributions.  In the first one there is
no intersection between initial data in neighbor nodes.  In the second, there
is 50% probability of intersection between initial data in nodes linked by
coordination rules; the intersection between data in other nodes is empty."

Overlapping data means a node already holds part of what its acquaintances
would send it, so fewer tuples are actually *inserted* during the update even
though roughly the same number are transferred.  The experiment runs the same
topologies under both distributions and reports messages, transferred tuples
and inserted tuples side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.experiments.runner import UpdateRunResult, run_dblp_update
from repro.stats.report import format_table
from repro.workloads.topologies import (
    TopologySpec,
    clique_topology,
    layered_topology,
    tree_topology,
)


@dataclass(frozen=True)
class DistributionComparison:
    """Results of one topology under both data distributions."""

    topology: str
    node_count: int
    disjoint: UpdateRunResult
    overlapping: UpdateRunResult

    @property
    def insertion_ratio(self) -> float:
        """Inserted tuples with overlap divided by inserted tuples without."""
        if self.disjoint.tuples_inserted == 0:
            return 1.0
        return self.overlapping.tuples_inserted / self.disjoint.tuples_inserted


def default_specs() -> list[TopologySpec]:
    """The three topology families at a small, comparable size."""
    return [tree_topology(3, 2), layered_topology(3, 3), clique_topology(6)]


def run_data_distribution(
    *,
    specs: Sequence[TopologySpec] | None = None,
    records_per_node: int = 40,
    overlap_probability: float = 0.5,
    overlap_fraction: float = 0.5,
    seed: int = 0,
) -> list[DistributionComparison]:
    """Run every topology under the disjoint and the overlapping distribution."""
    return [
        _compare_distributions(
            spec,
            records_per_node=records_per_node,
            overlap_probability=overlap_probability,
            overlap_fraction=overlap_fraction,
            seed=seed,
        )
        for spec in (specs if specs is not None else default_specs())
    ]


def _compare_distributions(
    spec: TopologySpec,
    *,
    records_per_node: int,
    overlap_probability: float,
    overlap_fraction: float,
    seed: int,
) -> DistributionComparison:
    _, disjoint = run_dblp_update(
        spec,
        records_per_node=records_per_node,
        overlap_probability=0.0,
        seed=seed,
        label=f"{spec.name}/disjoint",
    )
    _, overlapping = run_dblp_update(
        spec,
        records_per_node=records_per_node,
        overlap_probability=overlap_probability,
        overlap_fraction=overlap_fraction,
        seed=seed,
        label=f"{spec.name}/overlap",
    )
    return DistributionComparison(
        topology=spec.name,
        node_count=spec.node_count,
        disjoint=disjoint,
        overlapping=overlapping,
    )


def main(records_per_node: int = 40) -> str:
    """Print the 0% vs 50% overlap comparison table."""
    comparisons = run_data_distribution(records_per_node=records_per_node)
    rows = [
        [
            comparison.topology,
            comparison.node_count,
            label,
            result.update_messages,
            result.tuples_transferred,
            result.tuples_inserted,
            result.update_time,
        ]
        for comparison in comparisons
        for label, result in (
            ("0% overlap", comparison.disjoint),
            ("50% overlap", comparison.overlapping),
        )
    ]
    table = format_table(
        [
            "topology",
            "nodes",
            "distribution",
            "update msgs",
            "tuples transferred",
            "tuples inserted",
            "update time",
        ],
        rows,
        title="E5 — data distributions: disjoint vs 50% overlap",
    )
    for comparison in comparisons:
        table += (
            f"\n{comparison.topology}: inserted(overlap)/inserted(disjoint) = "
            f"{comparison.insertion_ratio:.2f}"
        )
    print(table)
    return table

