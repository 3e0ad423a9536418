"""Experiment E8 — separated sub-networks under ongoing change (Theorem 3).

Theorem 3: if a set of nodes A is separated from the rest of the network with
respect to a (possibly infinite) change U, and the sub-change relevant to A is
finite, then the algorithm applied to a node in A terminates with a sound and
complete answer — the churn elsewhere cannot disturb A.

The experiment builds two components: a small tree (component A) and a clique
(component B) with no rules between them.  It then runs the update on A while
continuously applying a long change stream to B (a stand-in for an infinite
change: rules inside B keep being added and deleted between message
deliveries).  Component A must reach its fix-point with exactly the same
contents as an isolated run of A, and the number of messages handled by A's
nodes must not depend on the churn in B.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.spec import ScenarioSpec
from repro.baselines.centralized import centralized_update
from repro.core.dynamics import (
    NetworkChange,
    apply_change_operation,
    is_separated_under_change,
)
from repro.core.fixpoint import ground_part
from repro.stats.report import format_table
from repro.workloads.dblp import rows_for_variant, schema_for_variant
from repro.workloads.distributions import distribute_records
from repro.workloads.topologies import (
    TopologySpec,
    clique_topology,
    coordination_rules_for,
    tree_topology,
)


def _prefixed_spec(spec: TopologySpec, prefix: str) -> TopologySpec:
    """Rename every node of a topology with a component prefix."""
    mapping = {node: f"{prefix}{node}" for node in spec.nodes}
    return TopologySpec(
        name=f"{prefix}{spec.name}",
        nodes=tuple(mapping[node] for node in spec.nodes),
        edges=tuple((mapping[a], mapping[b]) for a, b in spec.edges),
        depth=spec.depth,
        variant_by_node={mapping[n]: spec.variant_of(n) for n in spec.nodes},
    )


@dataclass(frozen=True)
class SeparationResult:
    """Outcome of the separated-component run."""

    component_a_nodes: int
    component_b_nodes: int
    churn_operations: int
    separated: bool
    a_terminated: bool
    a_matches_isolated_run: bool
    messages_within_a: int
    total_messages: int

    @property
    def theorem3_holds(self) -> bool:
        """Separation + termination + correctness of the separated component."""
        return self.separated and self.a_terminated and self.a_matches_isolated_run


def run_separation(
    *,
    tree_depth: int = 2,
    clique_size: int = 4,
    records_per_node: int = 15,
    churn_rounds: int = 6,
    seed: int = 0,
) -> SeparationResult:
    """Update a tree component while the clique component churns."""
    spec_a = _prefixed_spec(tree_topology(tree_depth, fanout=2), "a_")
    spec_b = _prefixed_spec(clique_topology(clique_size), "b_")

    schemas = {
        node: schema_for_variant(spec_a.variant_of(node)) for node in spec_a.nodes
    }
    schemas.update(
        {node: schema_for_variant(spec_b.variant_of(node)) for node in spec_b.nodes}
    )
    assignment_a = distribute_records(spec_a, records_per_node, seed=seed)
    assignment_b = distribute_records(spec_b, records_per_node, seed=seed + 1)
    data = {
        node: rows_for_variant(records, spec_a.variant_of(node))
        for node, records in assignment_a.items()
    }
    data.update(
        {
            node: rows_for_variant(records, spec_b.variant_of(node))
            for node, records in assignment_b.items()
        }
    )
    rules_a = coordination_rules_for(spec_a)
    rules_b = coordination_rules_for(spec_b)

    system = ScenarioSpec.of(
        schemas, rules_a + rules_b, data, super_peer=spec_a.nodes[0]
    ).build_system()

    # The churn: repeatedly delete and re-add rules of component B.
    churn = NetworkChange()
    for round_index in range(churn_rounds):
        victim = rules_b[round_index % len(rules_b)]
        churn.delete_link(victim.target, victim.sources[0], victim.rule_id)
        churn.add_link(
            type(victim)(
                f"{victim.rule_id}@{round_index}",
                victim.target,
                victim.head,
                victim.body,
                victim.comparisons,
            )
        )
    separated = is_separated_under_change(
        spec_a.nodes, spec_b.nodes, rules_a + rules_b, churn
    )

    # Start the update only inside component A, then interleave B's churn.
    for node_id in spec_a.nodes:
        system.node(node_id).update.start()
    operations = list(churn)
    for operation in operations:
        for _ in range(3):
            if system.transport.step() is None:  # type: ignore[attr-defined]
                break
        apply_change_operation(system, operation)
    system.transport.run()  # type: ignore[attr-defined]

    a_closed = all(system.node(node).is_update_closed for node in spec_a.nodes)

    # Reference: component A updated in isolation.
    reference = centralized_update(
        {node: schemas[node] for node in spec_a.nodes},
        rules_a,
        {node: data[node] for node in spec_a.nodes},
    ).snapshot()
    measured = {node: system.node(node).database.facts() for node in spec_a.nodes}
    matches = ground_part(measured) == ground_part(reference)

    snapshot = system.snapshot_stats()
    messages_within_a = sum(
        counters.messages_sent
        for node, counters in snapshot.nodes.items()
        if node in set(spec_a.nodes)
    )
    return SeparationResult(
        component_a_nodes=spec_a.node_count,
        component_b_nodes=spec_b.node_count,
        churn_operations=len(operations),
        separated=separated,
        a_terminated=a_closed,
        a_matches_isolated_run=matches,
        messages_within_a=messages_within_a,
        total_messages=snapshot.total_messages,
    )


def main() -> str:
    """Print the Theorem 3 check for a tree separated from a churning clique."""
    result = run_separation()
    table = format_table(
        [
            "A nodes",
            "B nodes",
            "churn ops",
            "separated",
            "A terminated",
            "A correct",
            "msgs in A",
            "total msgs",
        ],
        [
            [
                result.component_a_nodes,
                result.component_b_nodes,
                result.churn_operations,
                result.separated,
                result.a_terminated,
                result.a_matches_isolated_run,
                result.messages_within_a,
                result.total_messages,
            ]
        ],
        title="E8 — separated component under churn (Theorem 3)",
    )
    table += f"\nTheorem 3 holds: {result.theorem3_holds}"
    print(table)
    return table

