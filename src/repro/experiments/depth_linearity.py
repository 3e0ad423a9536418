"""Experiment E4 — execution time versus depth (the paper's headline result).

"By looking at the execution time and the number of messages exchanged
between nodes, the preliminary experiments confirmed the expectation that in
the simple topological structures (like the tree and the layered acyclic
graphs) the execution time is linear with respect to the depth of the
structure."

The experiment sweeps the depth of binary trees and of layered acyclic graphs
(constant width), measures the simulated completion time of the global update
under a constant per-message latency, and fits a straight line: the reported
R² quantifies how well "linear in the depth" holds in the reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.experiments.runner import UpdateRunResult, run_dblp_update
from repro.stats.report import format_table, series_summary
from repro.workloads.topologies import layered_topology, tree_topology


@dataclass(frozen=True)
class DepthSeries:
    """Depth sweep of one topology family plus its linear fit."""

    family: str
    depths: tuple[int, ...]
    update_times: tuple[float, ...]
    update_messages: tuple[int, ...]
    fit: dict[str, float]
    results: tuple[UpdateRunResult, ...]

    @property
    def is_linear(self) -> bool:
        """True when the linear fit explains at least 95% of the variance."""
        return self.fit["r_squared"] >= 0.95


def run_depth_linearity(
    *,
    depths: Sequence[int] = (1, 2, 3, 4, 5),
    fanout: int = 2,
    layered_width: int = 2,
    records_per_node: int = 20,
    seed: int = 0,
) -> dict[str, DepthSeries]:
    """Sweep tree and layered-DAG depths and fit time = a·depth + b."""
    series: dict[str, DepthSeries] = {}

    for family in ("tree", "layered"):
        depth_list: list[int] = []
        times: list[float] = []
        messages: list[int] = []
        results: list[UpdateRunResult] = []
        for depth in depths:
            if family == "tree":
                spec = tree_topology(depth, fanout=fanout)
            else:
                spec = layered_topology(depth, width=layered_width, seed=seed)
            _, result = run_dblp_update(
                spec,
                records_per_node=records_per_node,
                seed=seed,
                label=f"{family}/depth={depth}",
            )
            depth_list.append(depth)
            times.append(result.update_time)
            messages.append(result.update_messages)
            results.append(result)
        fit = series_summary([float(d) for d in depth_list], times)
        series[family] = DepthSeries(
            family=family,
            depths=tuple(depth_list),
            update_times=tuple(times),
            update_messages=tuple(messages),
            fit=fit,
            results=tuple(results),
        )
    return series


def main(records_per_node: int = 20) -> str:
    """Print update time per depth for trees and layered DAGs plus the fits."""
    series = run_depth_linearity(records_per_node=records_per_node)
    rows = [
        [family, depth, update_time, message_count, result.tuples_inserted]
        for family, data in series.items()
        for depth, update_time, message_count, result in zip(
            data.depths, data.update_times, data.update_messages, data.results
        )
    ]
    table = format_table(
        ["family", "depth", "update time", "update msgs", "tuples ins"],
        rows,
        title="E4 — execution time vs depth",
    )
    for family, data in series.items():
        fit = data.fit
        table += (
            f"\n{family}: time ≈ {fit['slope']:.2f}·depth + {fit['intercept']:.2f}"
            f"  (R² = {fit['r_squared']:.3f}, linear: {data.is_linear})"
        )
    print(table)
    return table

