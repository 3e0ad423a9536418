"""Per-run change sets and the shared structural digest.

Two previously-independent pieces of bookkeeping meet here:

* :class:`ChangeSet` describes *what changed* in a system between two runs —
  the rows inserted per node and relation, plus two coarse flags (rows were
  removed / the rule set changed).  The warm engines build one from the
  structural sync delta they ship to their workers and use
  :attr:`ChangeSet.incremental_ok` to decide whether the next update run can
  be *delta-driven* (semi-naive: seed the chase with the inserted rows and
  propagate only new derivations) or must fall back to the naive full
  re-pull.  Workers accumulate shipped deltas in a :class:`ChangeAccumulator`
  and seed the update protocol from the resulting change set
  (:meth:`repro.core.system.P2PSystem.seed_update_delta`).

* :class:`StructuralDigest` is the *one* fingerprint of a system's logical
  state — the rule set plus every relation's contents — and the memo key of
  :meth:`repro.api.session.Session.update`.  The digest is hashable (cache
  keys) and structural by construction: ``addLink``/``deleteLink`` changes
  the rules part, any insertion changes the data part.  (The warm pools'
  :class:`repro.sharding.pool.WorldMirror` shares the rules half,
  :func:`rules_fingerprint`; for the data it keeps marks on the live
  relations instead of a second copy of them.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.coordination.rule import CoordinationRule, NodeId
from repro.database.relation import Row

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.core.system import P2PSystem


# ----------------------------------------------------------------- change sets


@dataclass(frozen=True)
class ChangeSet:
    """What changed in a system between two runs, from the protocol's view.

    ``inserts`` maps node ids to per-relation tuples of rows that *appeared*
    since the last run; ``removals`` is set when any relation lost rows or
    was rewritten wholesale; ``rule_changes`` when rules were added, removed
    or edited.  Only pure-insert change sets are eligible for delta-driven
    (semi-naive) evaluation — the chase is monotone, so there is no
    incremental story for retractions or rule edits, and those fall back to
    the naive full re-pull.
    """

    inserts: Mapping[NodeId, Mapping[str, tuple[Row, ...]]] = field(
        default_factory=dict
    )
    removals: bool = False
    rule_changes: bool = False

    @property
    def empty(self) -> bool:
        """True when nothing changed at all."""
        return not (self.inserts or self.removals or self.rule_changes)

    @property
    def incremental_ok(self) -> bool:
        """True when the change is pure row insertion (delta path eligible).

        An *empty* change set is also eligible: an incremental run seeded
        with nothing is a legitimate no-op (the network is already at its
        fix-point by Lemma 1).
        """
        return not (self.removals or self.rule_changes)

    @property
    def inserted_rows(self) -> int:
        """Total number of inserted rows across all nodes and relations."""
        return sum(
            len(rows)
            for relations in self.inserts.values()
            for rows in relations.values()
        )

    def union(self, other: "ChangeSet") -> "ChangeSet":
        """Merge two change logs into one canonical set.

        Inserts union set-wise per node and relation and come back in a
        canonical sorted order, so the merge is idempotent, commutative and
        associative — the properties the post-partition reconciliation pass
        (:mod:`repro.faults.reconcile`) is built on.  The coarse flags OR.
        """
        merged: dict[NodeId, dict[str, tuple[Row, ...]]] = {}
        for source in (self.inserts, other.inserts):
            for node_id, relations in source.items():
                per_node = merged.setdefault(node_id, {})
                for relation_name, rows in relations.items():
                    existing = per_node.get(relation_name, ())
                    per_node[relation_name] = tuple(
                        sorted(set(existing) | set(rows), key=repr)
                    )
        return ChangeSet(
            inserts={
                node_id: dict(sorted(relations.items()))
                for node_id, relations in sorted(merged.items())
            },
            removals=self.removals or other.removals,
            rule_changes=self.rule_changes or other.rule_changes,
        )

    @classmethod
    def from_sync_delta(cls, delta: Any) -> "ChangeSet":
        """Build from a :class:`repro.sharding.pool.SyncDelta`.

        Duck-typed (``inserts`` / ``replaces`` / ``add_rules`` /
        ``remove_rules`` attributes) so this module stays import-cycle-free
        below the sharding layer.
        """
        return cls(
            inserts={
                node_id: dict(relations)
                for node_id, relations in delta.inserts.items()
            },
            removals=bool(delta.replaces),
            rule_changes=bool(delta.add_rules or delta.remove_rules),
        )


class ChangeAccumulator:
    """Folds shipped sync deltas into one :class:`ChangeSet` between runs.

    Lives inside a persistent worker: every ``sync`` command notes its
    payload here, and the next *update* start takes the accumulated change
    set (clearing the accumulator).  Discovery starts leave it untouched, so
    an insert shipped before a discovery run still seeds the following
    incremental update.
    """

    def __init__(self) -> None:
        self._inserts: dict[NodeId, dict[str, list[Row]]] = {}
        self._removals = False
        self._rule_changes = False

    def note_sync_payload(self, payload: Mapping[str, Any]) -> None:
        """Fold one shipped delta (a ``SyncDelta.for_shard`` dict) in."""
        if payload.get("add_rules") or payload.get("remove_rules"):
            self._rule_changes = True
        if payload.get("replaces"):
            self._removals = True
        for node_id, relations in (payload.get("inserts") or {}).items():
            per_node = self._inserts.setdefault(node_id, {})
            for relation_name, rows in relations.items():
                per_node.setdefault(relation_name, []).extend(rows)

    def take(self) -> ChangeSet:
        """Return the accumulated change set and reset the accumulator."""
        changes = ChangeSet(
            inserts={
                node_id: {
                    relation_name: tuple(rows)
                    for relation_name, rows in relations.items()
                }
                for node_id, relations in self._inserts.items()
            },
            removals=self._removals,
            rule_changes=self._rule_changes,
        )
        self._inserts = {}
        self._removals = False
        self._rule_changes = False
        return changes


# ------------------------------------------------------------------- digests


def rules_fingerprint(rules: Iterable[CoordinationRule]) -> dict[str, str]:
    """``rule_id -> rule.text`` for a rule set.

    The text captures body, head and comparisons, so editing a rule under
    the same id reads as remove + add.
    """
    return {rule.rule_id: rule.text for rule in rules}


@dataclass(frozen=True)
class StructuralDigest:
    """A hashable digest of a system's rule set and relation contents.

    Equality is structural: two digests are equal exactly when the systems
    hold the same rules (by id and text) and the same rows in every node's
    relations.  This is the fingerprint behind the ``Session.update``
    strategy-memo cache.
    """

    rules: tuple[tuple[str, str], ...]
    data: tuple[tuple[NodeId, tuple[tuple[str, frozenset[Row]], ...]], ...]


def structural_digest(
    rules: Mapping[str, str],
    facts: Mapping[NodeId, Mapping[str, frozenset[Row]]],
) -> StructuralDigest:
    """Build the digest from a rules fingerprint and per-node fact sets."""
    return StructuralDigest(
        rules=tuple(sorted(rules.items())),
        data=tuple(
            (
                node_id,
                tuple(
                    (relation_name, frozenset(rows))
                    for relation_name, rows in sorted(relations.items())
                ),
            )
            for node_id, relations in sorted(facts.items())
        ),
    )


def digest_system(system: "P2PSystem") -> StructuralDigest:
    """The live system's structural digest (rules + every relation's rows)."""
    return structural_digest(rules_fingerprint(system.registry), system.databases())
