"""Experiment E1 — the Section 2 worked example and its dependency paths.

The paper lists, for the five-node example (nodes A–E, rules r1–r7), the
dependency edges and the maximal dependency paths of every node.  This
experiment recomputes both from the rule definitions and also checks that the
*distributed* topology-discovery protocol arrives at the same paths as the
static computation over the global rule set.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.session import Session
from repro.coordination.depgraph import DependencyGraph
from repro.stats.report import format_table
from repro.workloads.scenarios import build_paper_example, paper_example_rules


@dataclass(frozen=True)
class PaperExampleResult:
    """Dependency structure of the running example."""

    edges: frozenset[tuple[str, str]]
    static_paths: dict[str, list[str]]
    discovered_paths: dict[str, list[str]]
    discovery_messages: int
    discovery_time: float

    @property
    def paths_match(self) -> bool:
        """True when discovery reproduced the statically computed paths."""
        return all(
            self.discovered_paths.get(node) == paths
            for node, paths in self.static_paths.items()
        )


def run_paper_example() -> PaperExampleResult:
    """Compute the example's dependency paths statically and via discovery."""
    rules = paper_example_rules()
    graph = DependencyGraph.from_rules(rules)
    static_paths = {
        node: ["".join(path) for path in graph.maximal_dependency_paths(node)]
        for node in sorted(graph.nodes)
    }

    session = Session(build_paper_example(with_data=False))
    # Start discovery at every node so each one learns its own paths, then
    # compare with the static ground truth.
    discovery = session.run("discovery", origins=sorted(session.system.nodes))
    discovered_paths = {
        node_id: ["".join(path) for path in node.state.maximal_paths()]
        for node_id, node in sorted(session.system.nodes.items())
    }
    return PaperExampleResult(
        edges=frozenset(graph.edges),
        static_paths=static_paths,
        discovered_paths=discovered_paths,
        discovery_messages=discovery.stats.total_messages,
        discovery_time=discovery.completion_time,
    )


def main() -> str:
    """Print the dependency-path table of the paper's example."""
    result = run_paper_example()
    rows = []
    for node, paths in result.static_paths.items():
        discovered = result.discovered_paths.get(node, [])
        rows.append([node, ", ".join(paths), ", ".join(discovered)])
    table = format_table(
        ["node", "maximal dependency paths (static)", "paths found by discovery"],
        rows,
        title="E1 — dependency paths of the Section 2 example",
    )
    table += (
        f"\nedges: {sorted(result.edges)}"
        f"\ndiscovery messages: {result.discovery_messages}, "
        f"paths match: {result.paths_match}"
    )
    print(table)
    return table

