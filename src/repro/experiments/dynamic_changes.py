"""Experiment E7 — runtime network changes (Theorem 2).

Section 4 models network dynamicity as a sequence of ``addLink`` /
``deleteLink`` operations racing with the update run, and Theorem 2 states
that for a finite change the algorithm terminates and produces an answer that
is *sound* and *complete* in the sense of Definition 9 (bounded between the
"all deletes first" and "all adds first" reference databases).

The experiment starts the global update on a tree, interleaves a change
sequence (a few added rules that graft new branches plus a few deleted rules)
with message delivery, runs the network to quiescence, and checks the measured
databases against the two envelopes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.spec import ScenarioSpec
from repro.core.dynamics import (
    NetworkChange,
    apply_change_interleaved,
    complete_envelope,
    is_complete_answer,
    is_sound_answer,
    sound_envelope,
)
from repro.core.fixpoint import all_nodes_closed
from repro.stats.report import format_table
from repro.workloads.topologies import (
    TopologySpec,
    coordination_rules_for,
    tree_topology,
)


@dataclass(frozen=True)
class DynamicChangeResult:
    """Outcome of one interleaved-change run."""

    topology: str
    node_count: int
    change_length: int
    added_rules: int
    deleted_rules: int
    completion_time: float
    total_messages: int
    sound: bool
    complete: bool
    terminated: bool

    @property
    def theorem2_holds(self) -> bool:
        """Termination plus soundness plus completeness (Theorem 2)."""
        return self.terminated and self.sound and self.complete


def build_change_for(spec: TopologySpec, *, deletions: int = 2) -> NetworkChange:
    """A change that grafts reverse edges onto a topology and deletes some rules.

    The added rules reverse a few existing import edges (so new data starts
    flowing in the opposite direction); the deleted rules are taken from the
    end of the original rule list.
    """
    original_rules = coordination_rules_for(spec)
    change = NetworkChange()

    # Reverse the first few edges: importer becomes exporter and vice versa.
    reversed_spec = TopologySpec(
        name=spec.name + "-reversed",
        nodes=spec.nodes,
        edges=tuple((exporter, importer) for importer, exporter in spec.edges[:2]),
        depth=spec.depth,
        variant_by_node=dict(spec.variant_by_node),
    )
    for rule in coordination_rules_for(reversed_spec):
        change.add_link(
            type(rule)(
                rule.rule_id + "+dyn",
                rule.target,
                rule.head,
                rule.body,
                rule.comparisons,
            )
        )

    for rule in original_rules[-deletions:]:
        change.delete_link(rule.target, rule.sources[0], rule.rule_id)
    return change


def run_dynamic_changes(
    *,
    depth: int = 3,
    fanout: int = 2,
    records_per_node: int = 20,
    deletions: int = 2,
    steps_between: int = 10,
    seed: int = 0,
) -> DynamicChangeResult:
    """Run the update on a tree while a change sequence races with it."""
    spec = tree_topology(depth, fanout=fanout)
    scenario = ScenarioSpec.from_topology(
        spec, records_per_node=records_per_node, seed=seed
    )
    system = scenario.build_system()
    change = build_change_for(spec, deletions=deletions)

    # Start the update at every node, then interleave the change with delivery.
    for node_id in sorted(system.nodes):
        system.node(node_id).update.start()
    completion_time = apply_change_interleaved(
        system, change, steps_between=steps_between
    )

    measured = system.databases()
    upper = sound_envelope(scenario.schemas, scenario.rules, change, scenario.data)
    lower = complete_envelope(scenario.schemas, scenario.rules, change, scenario.data)
    snapshot = system.snapshot_stats()
    return DynamicChangeResult(
        topology=spec.name,
        node_count=spec.node_count,
        change_length=len(change),
        added_rules=len(change.added_rules),
        deleted_rules=len(change.deleted_rule_ids),
        completion_time=completion_time,
        total_messages=snapshot.total_messages,
        sound=is_sound_answer(measured, upper),
        complete=is_complete_answer(measured, lower),
        terminated=all_nodes_closed(system) or system.transport.pending == 0,
    )


def main() -> str:
    """Print the Theorem 2 check for a tree with an interleaved change."""
    result = run_dynamic_changes()
    table = format_table(
        [
            "topology",
            "nodes",
            "change ops",
            "added",
            "deleted",
            "messages",
            "sound",
            "complete",
            "terminated",
        ],
        [
            [
                result.topology,
                result.node_count,
                result.change_length,
                result.added_rules,
                result.deleted_rules,
                result.total_messages,
                result.sound,
                result.complete,
                result.terminated,
            ]
        ],
        title="E7 — update interleaved with addLink/deleteLink (Theorem 2)",
    )
    table += f"\nTheorem 2 holds: {result.theorem2_holds}"
    print(table)
    return table


if __name__ == "__main__":  # pragma: no cover
    main()
