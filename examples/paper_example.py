#!/usr/bin/env python3
"""The paper's Section 2 running example, end to end.

Builds the five-node system (A–E) with rules r1–r7, prints the dependency
edges and the maximal dependency paths of every node (the table on page 4 of
the technical report), runs topology discovery followed by the distributed
update with a full message trace, and finally shows the data each node ended
up with and checks the result against the centralized reference.

Run with::

    python examples/paper_example.py
"""

from __future__ import annotations

from repro import Session, verify_against_centralized
from repro.coordination import DependencyGraph
from repro.workloads import (
    build_paper_example,
    paper_example_data,
    paper_example_rules,
    paper_example_schemas,
)


def main() -> None:
    rules = paper_example_rules()

    print("Coordination rules:")
    for rule in rules:
        print("  ", rule)

    graph = DependencyGraph.from_rules(rules)
    print("\nDependency edges (head node -> body node):")
    for source, target in sorted(graph.edges):
        print(f"   {source} -> {target}")

    print("\nMaximal dependency paths per node (paper, page 4):")
    for node in sorted(graph.nodes):
        paths = ["".join(path) for path in graph.maximal_dependency_paths(node)]
        print(f"   {node}: {', '.join(paths) if paths else '(none)'}")

    # Run both protocol phases with tracing enabled, through one session.
    system = build_paper_example(propagation="per_path")
    system.transport.enable_trace()
    session = Session(system)
    session.run("discovery", origins=["A"])
    session.run("update")

    print("\nExecution trace (first 25 messages, cf. Figure 1):")
    for at_time, message in system.transport.trace[:25]:
        print(
            f"   t={at_time:5.1f}  {message.type.value:17s} "
            f"{message.sender} -> {message.recipient}"
        )

    print("\nLocal databases after the update:")
    for node_id in sorted(system.nodes):
        facts = system.node(node_id).database.facts()
        for relation, rows in sorted(facts.items()):
            rendered = ", ".join(str(row) for row in sorted(rows, key=str))
            print(f"   {node_id}.{relation}: {rendered if rendered else '(empty)'}")

    report = verify_against_centralized(
        system, paper_example_schemas(), paper_example_rules(), paper_example_data()
    )
    stats = system.snapshot_stats()
    print(
        "\nmessages:",
        stats.total_messages,
        " duplicate queries:",
        stats.total_duplicate_queries,
    )
    print("distributed result matches the centralized fix-point:", report.ok)
    assert report.ok


if __name__ == "__main__":
    main()
