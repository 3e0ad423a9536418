"""Single-pass propagation for acyclic networks, à la Halevy et al. 2003.

The related work the paper cites handles "acyclic P2P systems using classical
(first-order logic) semantics": because the dependency graph has no cycles, a
query (or an update) can simply be propagated "until it reaches the leaves of
the network" — one pass in reverse topological order of the dependency graph
suffices.

This baseline applies every rule exactly once, ordering targets so that a
node's sources are fully updated before the node itself imports from them.
On an acyclic network the result coincides with the centralized fix-point; on
a cyclic network the function refuses to run (that is precisely the
limitation the paper's algorithm removes), unless ``force=True`` is passed,
in which case the single pass is performed anyway so experiments can show how
much data a cycle-oblivious algorithm misses.
"""

from __future__ import annotations

from typing import Iterable

from repro.baselines.centralized import (
    CentralizedResult,
    DataSpec,
    SchemaSpec,
    _build_databases,
    apply_rule,
)
from repro.coordination.depgraph import DependencyGraph
from repro.coordination.rule import CoordinationRule, NodeId
from repro.errors import ReproError


def _topological_order(graph: DependencyGraph) -> list[NodeId]:
    """Nodes ordered so that every node appears after the nodes it depends on."""
    order: list[NodeId] = []
    state: dict[NodeId, int] = {}
    WHITE, GREY, BLACK = 0, 1, 2

    def visit(node: NodeId) -> None:
        state[node] = GREY
        for successor in sorted(graph.successors(node)):
            colour = state.get(successor, WHITE)
            if colour == WHITE:
                visit(successor)
        state[node] = BLACK
        order.append(node)

    for node in sorted(graph.nodes):
        if state.get(node, WHITE) == WHITE:
            visit(node)
    return order


def acyclic_update(
    schemas: SchemaSpec,
    rules: Iterable[CoordinationRule],
    data: DataSpec | None = None,
    *,
    force: bool = False,
) -> CentralizedResult:
    """One propagation pass in dependency order (complete only without cycles).

    Raises :class:`ReproError` when the dependency graph is cyclic and
    ``force`` is False.
    """
    rules = list(rules)
    graph = DependencyGraph.from_rules(rules, nodes=schemas.keys())
    if not graph.is_acyclic() and not force:
        raise ReproError(
            "the dependency graph has cycles; the acyclic baseline is not applicable"
        )

    databases = _build_databases(schemas, data)
    order = _topological_order(graph)
    position = {node: index for index, node in enumerate(order)}

    # Apply rules grouped by target, targets ordered so sources come first.
    ordered_rules = sorted(
        rules, key=lambda rule: (position.get(rule.target, 0), rule.rule_id)
    )
    rule_applications = 0
    tuples_inserted = 0
    for rule in ordered_rules:
        rule_applications += 1
        tuples_inserted += len(apply_rule(databases, rule))

    return CentralizedResult(
        databases=databases,
        rounds=1,
        rule_applications=rule_applications,
        tuples_inserted=tuples_inserted,
    )
