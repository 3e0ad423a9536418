"""Fix-point and quiescence checks (Lemma 1 support).

The distributed update has reached its fix-point when no node can import any
further tuple through any coordination rule.  These helpers verify that
property from the outside:

* :func:`all_nodes_closed` — every node's ``state_u`` flag is ``closed``
  (the paper's per-node fix-point indicator),
* :func:`satisfies_all_rules` — the *semantic* fix-point: applying any rule to
  the current network contents adds nothing (checked with the same chase step
  the engine uses),
* :func:`verify_against_centralized` — the distributed result coincides with
  the centralized reference on the ground (null-free) part of every relation,
  and is closed under the rules; this is the soundness-and-completeness check
  used throughout the test-suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.baselines.centralized import apply_rule, centralized_update
from repro.coordination.rule import CoordinationRule, NodeId
from repro.core.system import P2PSystem
from repro.database.nulls import is_null
from repro.database.relation import Row

Snapshot = Mapping[NodeId, Mapping[str, frozenset[Row]]]


def all_nodes_closed(system: P2PSystem) -> bool:
    """True when every node of the system reports ``state_u == closed``."""
    return all(node.is_update_closed for node in system.nodes.values())


def satisfies_all_rules(system: P2PSystem) -> bool:
    """True when no rule application can add a tuple anywhere (semantic fix-point)."""
    databases = {node_id: node.database for node_id, node in system.nodes.items()}
    for rule in system.registry:
        # The step fires into a copy of the target: checking writes nothing.
        if apply_rule({**databases, rule.target: databases[rule.target].copy()}, rule):
            return False
    return True


def ground_part(snapshot: Snapshot) -> dict[NodeId, dict[str, frozenset[Row]]]:
    """Drop every row containing a labelled null from a snapshot."""
    return {
        node_id: {
            relation: frozenset(
                row for row in rows if not any(is_null(value) for value in row)
            )
            for relation, rows in relations.items()
        }
        for node_id, relations in snapshot.items()
    }


@dataclass(frozen=True)
class VerificationReport:
    """Result of comparing a distributed run with the centralized reference."""

    ground_equal: bool
    rules_satisfied: bool
    missing: dict[NodeId, dict[str, frozenset[Row]]]
    extra: dict[NodeId, dict[str, frozenset[Row]]]

    @property
    def ok(self) -> bool:
        """True when the distributed result is sound and complete."""
        return self.ground_equal and self.rules_satisfied


def verify_against_centralized(
    system: P2PSystem,
    schemas: Mapping[NodeId, Iterable],
    rules: Iterable[CoordinationRule],
    initial_data: Mapping[NodeId, Mapping[str, Iterable[Row]]] | None,
) -> VerificationReport:
    """Compare the system's databases with the centralized fix-point.

    Ground (null-free) tuples must match exactly; tuples with invented nulls
    are compared only through :func:`satisfies_all_rules`, because the labels
    of the nulls — and, with existential cycles, even their number — depend on
    the order in which rules fire.
    """
    reference = centralized_update(schemas, list(rules), initial_data).snapshot()
    measured = system.databases()

    reference_ground = ground_part(reference)
    measured_ground = ground_part(measured)

    missing: dict[NodeId, dict[str, frozenset[Row]]] = {}
    extra: dict[NodeId, dict[str, frozenset[Row]]] = {}
    for node_id in reference_ground.keys() | measured_ground.keys():
        for relation in (
            reference_ground.get(node_id, {}).keys()
            | measured_ground.get(node_id, {}).keys()
        ):
            expected = reference_ground.get(node_id, {}).get(relation, frozenset())
            observed = measured_ground.get(node_id, {}).get(relation, frozenset())
            if expected - observed:
                missing.setdefault(node_id, {})[relation] = expected - observed
            if observed - expected:
                extra.setdefault(node_id, {})[relation] = observed - expected

    return VerificationReport(
        ground_equal=not missing and not extra,
        rules_satisfied=satisfies_all_rules(system),
        missing=missing,
        extra=extra,
    )
