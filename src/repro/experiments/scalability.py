"""Experiment E3 — scalability with respect to network size.

Section 5: "Up to 31 nodes participated to the preliminary experiments. [...]
about 20000 records about publications (about 1000 per node), organised in 3
different relational schemas. [...] Three types of topologies have been
considered: trees, layered acyclic graphs, and cliques."

This experiment sweeps the number of nodes for each topology family, runs
topology discovery followed by the global update, and reports execution time
(simulated), message counts and data volumes — the quantities the paper's
statistics module collected.  Record counts default to a laptop-friendly value
and can be raised to the paper's 1000 records/node via ``records_per_node``.
Every column is logical, so ``tests/golden/E3.txt`` pins the table byte for
byte; wall-clock at hundreds of nodes is measured by ``benchmarks/perf``.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.runner import UpdateRunResult, run_dblp_update
from repro.stats.report import format_table
from repro.workloads.topologies import (
    TopologySpec,
    clique_topology,
    layered_topology,
    tree_topology,
)


def tree_specs(sizes: Sequence[int]) -> list[TopologySpec]:
    """Binary trees whose node counts are closest to the requested sizes.

    Sizes follow the usual complete-binary-tree counts 3, 7, 15, 31 — 31 nodes
    being the paper's maximum.
    """
    depth_for_size = {3: 1, 7: 2, 15: 3, 31: 4, 63: 5}
    specs = []
    for size in sizes:
        if size not in depth_for_size:
            raise ValueError(f"no complete binary tree with {size} nodes")
        specs.append(tree_topology(depth_for_size[size], fanout=2))
    return specs


def layered_specs(
    sizes: Sequence[int], width: int = 3, seed: int = 0
) -> list[TopologySpec]:
    """Layered acyclic graphs of the requested (approximate) sizes."""
    specs = []
    for size in sizes:
        depth = max(1, round(size / width) - 1)
        specs.append(layered_topology(depth, width=width, seed=seed))
    return specs


def clique_specs(sizes: Sequence[int]) -> list[TopologySpec]:
    """Cliques of the requested sizes."""
    return [clique_topology(size) for size in sizes]


def run_scalability(
    *,
    tree_sizes: Sequence[int] = (3, 7, 15, 31),
    layered_sizes: Sequence[int] = (6, 9, 12, 15),
    clique_sizes: Sequence[int] = (3, 5, 7, 9),
    records_per_node: int = 50,
    overlap_probability: float = 0.0,
    seed: int = 0,
) -> list[UpdateRunResult]:
    """Run the scalability sweep over all three topology families."""
    families = [
        ("tree", tree_specs(tree_sizes)),
        ("layered", layered_specs(layered_sizes, seed=seed)),
        ("clique", clique_specs(clique_sizes)),
    ]
    return [
        run_dblp_update(
            spec,
            records_per_node=records_per_node,
            overlap_probability=overlap_probability,
            seed=seed,
            label=f"{family}/n={spec.node_count}",
        )[1]
        for family, specs in families
        for spec in specs
    ]


def main(records_per_node: int = 50) -> str:
    """Print the scalability table (one row per topology/size)."""
    results = run_scalability(records_per_node=records_per_node)
    rows = [result.as_row() for result in results]
    table = format_table(
        [
            "topology",
            "nodes",
            "depth",
            "discovery msgs",
            "update msgs",
            "update time",
            "tuples inserted",
            "closed",
        ],
        rows,
        title=f"E3 — scalability sweep ({records_per_node} records/node)",
    )
    print(table)
    return table

