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

from dataclasses import dataclass, replace

from repro.api.spec import ScenarioSpec
from repro.baselines.centralized import centralized_update
from repro.core.dynamics import (
    NetworkChange,
    apply_change_interleaved,
    is_separated_under_change,
)
from repro.core.fixpoint import ground_part
from repro.experiments.runner import report
from repro.workloads.topologies import TopologySpec, clique_topology, tree_topology


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

    component_a = ScenarioSpec.from_topology(
        spec_a, records_per_node=records_per_node, seed=seed
    )
    component_b = ScenarioSpec.from_topology(
        spec_b, records_per_node=records_per_node, seed=seed + 1
    )
    schemas = {**component_a.schemas, **component_b.schemas}
    data = {**component_a.data, **component_b.data}
    rules_a = list(component_a.rules)
    rules_b = list(component_b.rules)

    system = ScenarioSpec.of(
        schemas, rules_a + rules_b, data, super_peer=spec_a.nodes[0]
    ).build_system()

    # The churn: repeatedly delete and re-add rules of component B.
    churn = NetworkChange()
    for round_index in range(churn_rounds):
        victim = rules_b[round_index % len(rules_b)]
        churn.delete_link(victim.target, victim.sources[0], victim.rule_id)
        churn.add_link(replace(victim, rule_id=f"{victim.rule_id}@{round_index}"))
    separated = is_separated_under_change(
        spec_a.nodes, spec_b.nodes, rules_a + rules_b, churn
    )

    # Start the update only inside component A, then interleave B's churn.
    for node_id in spec_a.nodes:
        system.node(node_id).update.start()
    apply_change_interleaved(system, churn, steps_between=3)

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
        churn_operations=len(churn),
        separated=separated,
        a_terminated=a_closed,
        a_matches_isolated_run=matches,
        messages_within_a=messages_within_a,
        total_messages=snapshot.total_messages,
    )


def main() -> str:
    """Print the Theorem 3 check for a tree separated from a churning clique."""
    result = run_separation()
    return report(
        "E8 — separated component under churn (Theorem 3)",
        {
            "A nodes": "component_a_nodes",
            "B nodes": "component_b_nodes",
            "churn ops": "churn_operations",
            "separated": "separated",
            "A terminated": "a_terminated",
            "A correct": "a_matches_isolated_run",
            "msgs in A": "messages_within_a",
            "total msgs": "total_messages",
        },
        [result],
        f"Theorem 3 holds: {result.theorem3_holds}",
    )
