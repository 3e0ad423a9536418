"""The global (centralized) update algorithm, à la Calvanese et al. 2003.

The related work the paper cites "describes only a global algorithm, that
assumes a central node where all computation is performed".  This module
implements that algorithm over the same relational substrate and the same
chase step as the distributed engine:

* every node's database is available locally (no messages),
* rules are applied repeatedly — each application evaluates the rule body by
  joining the per-source fragments and materialises the head — until a full
  round adds no tuple anywhere.

Each rule application is :func:`apply_rule`, the one chase step of every
baseline, built from the distributed engine's own
:func:`repro.core.update.fragment_for`,
:func:`repro.core.update.join_fragments` and
:meth:`repro.database.database.LocalDatabase.apply_view_tuples`.  The
fix-point is the reference result the distributed algorithm must reproduce
(soundness and completeness, Lemma 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.coordination.rule import CoordinationRule, NodeId
from repro.core.update import fragment_for, join_fragments
from repro.database.database import LocalDatabase
from repro.database.relation import Row
from repro.database.schema import DatabaseSchema, RelationSchema
from repro.errors import TerminationError

SchemaSpec = Mapping[NodeId, DatabaseSchema | Iterable[RelationSchema]]
DataSpec = Mapping[NodeId, Mapping[str, Iterable[Row]]]
Snapshot = dict[NodeId, dict[str, frozenset[Row]]]


@dataclass(frozen=True)
class CentralizedResult:
    """Outcome of a centralized update run."""

    databases: dict[NodeId, LocalDatabase]
    rounds: int
    rule_applications: int
    tuples_inserted: int

    def snapshot(self) -> Snapshot:
        """Relation contents per node, comparable with ``P2PSystem.databases()``."""
        return {node_id: db.facts() for node_id, db in self.databases.items()}


def _build_databases(
    schemas: SchemaSpec, data: DataSpec | None
) -> dict[NodeId, LocalDatabase]:
    databases: dict[NodeId, LocalDatabase] = {}
    for node_id, schema in schemas.items():
        databases[node_id] = LocalDatabase(schema)
    if data:
        for node_id, relations in data.items():
            for relation_name, rows in relations.items():
                databases[node_id].insert_many(relation_name, rows)
    return databases


def apply_rule(
    databases: Mapping[NodeId, LocalDatabase], rule: CoordinationRule
) -> set[Row]:
    """One chase step: join ``rule``'s body fragments over ``databases`` and
    materialise its head at the target (step A6).

    Returns the rows inserted; none when a source has no database.  Every
    baseline and :func:`repro.core.fixpoint.satisfies_all_rules` apply rules
    through this function.
    """
    if any(source not in databases for source in rule.sources):
        return set()
    fragments = {
        source: fragment_for(databases[source], rule, source)
        for source in rule.sources
    }
    return databases[rule.target].apply_view_tuples(
        rule.rule_id,
        rule.head,
        rule.distinguished_variables,
        join_fragments(rule, fragments),
    )


def centralized_update(
    schemas: SchemaSpec,
    rules: Iterable[CoordinationRule],
    data: DataSpec | None = None,
    *,
    max_rounds: int = 10_000,
) -> CentralizedResult:
    """Compute the update fix-point with full global knowledge.

    Applies every rule in a round-robin fashion until one complete round
    changes nothing.  ``max_rounds`` bounds pathological rule sets (the chase
    over cyclic existential rules need not terminate in general); exceeding it
    raises :class:`TerminationError`.
    """
    rules = list(rules)
    databases = _build_databases(schemas, data)

    rounds = 0
    rule_applications = 0
    tuples_inserted = 0
    changed = True
    while changed:
        if rounds >= max_rounds:
            raise TerminationError(
                f"centralized update did not reach a fix-point in {max_rounds} rounds"
            )
        rounds += 1
        changed = False
        for rule in rules:
            rule_applications += 1
            inserted = apply_rule(databases, rule)
            if inserted:
                changed = True
                tuples_inserted += len(inserted)
    return CentralizedResult(
        databases=databases,
        rounds=rounds,
        rule_applications=rule_applications,
        tuples_inserted=tuples_inserted,
    )
