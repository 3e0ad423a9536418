"""The one change record, and the rules half of a system's fingerprint.

* :class:`Change` is *what changed* in a network, and the one shape every
  boundary speaks: a session run's deltas, pool sync and the workers'
  reports (:meth:`Change.read` over :class:`RelationMarks`), a worker's
  pending changes (:meth:`Change.union`), the incremental seed, the served update
  document (:meth:`Change.from_json`) and reconciliation logs
  (:meth:`Change.between`).  It is checked before it mutates anything.

* :func:`rules_fingerprint` is ``rule_id -> text`` for a rule set; the warm
  pools' :class:`repro.sharding.pool.WorldMirror` rebuilds it only when the
  registry's version moved, and for the data keeps marks on the live
  relations instead of a second copy of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Container, Iterable, Mapping

from repro.coordination.rule import CoordinationRule, NodeId, rule_from_text
from repro.database.relation import Mark, Relation, Row
from repro.database.schema import RelationSchema
from repro.errors import ChangeError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.core.system import P2PSystem

#: node → relation → rows.
Rows = Mapping[NodeId, Mapping[str, tuple[Row, ...]]]
#: The database-snapshot shape produced by ``P2PSystem.databases()``.
Snapshot = Mapping[NodeId, Mapping[str, frozenset[Row]]]


# --------------------------------------------------------------------- changes


def _canonical(rows: Iterable[Row]) -> tuple[Row, ...]:
    return tuple(sorted(set(rows), key=repr))


def _union_rows(*sources: Rows) -> dict[NodeId, dict[str, tuple[Row, ...]]]:
    merged: dict[NodeId, dict[str, set[Row]]] = {}
    for source in sources:
        for node_id, relations in source.items():
            per_node = merged.setdefault(node_id, {})
            for name, rows in relations.items():
                per_node.setdefault(name, set()).update(rows)
    return {
        node_id: {name: _canonical(rows) for name, rows in relations.items()}
        for node_id, relations in merged.items()
    }


def _parse_rows(document: object, what: str) -> dict[NodeId, dict[str, tuple]]:
    if not isinstance(document, Mapping) or not all(
        isinstance(relations, Mapping) for relations in document.values()
    ):
        raise ChangeError(f"{what} must be an object of node -> relation -> rows")
    parsed: dict[NodeId, dict[str, tuple]] = {}
    for node_id, relations in document.items():
        for name, rows in relations.items():
            where = f"{what}[{node_id!r}][{name!r}]"
            if not isinstance(rows, (list, tuple)):
                raise ChangeError(f"{where} must be a list of rows")
            for row in rows:
                if not isinstance(row, (list, tuple)) or any(
                    isinstance(value, (list, dict)) for value in row
                ):
                    raise ChangeError(f"{where} rows must be arrays, got {row!r}")
            parsed.setdefault(str(node_id), {})[str(name)] = tuple(map(tuple, rows))
    return parsed


def _parse_rule(text: object) -> CoordinationRule:
    rule_id, separator, remainder = str(text).partition(":")
    if not isinstance(text, str) or not separator or not remainder.strip():
        raise ChangeError(
            f"cannot parse rule {text!r}; expected 'rule_id: body -> target: head'"
        )
    return rule_from_text(rule_id.strip(), remainder.strip())


class RelationMarks:
    """What one reader has seen of a system's relations: a mark on each.

    Built with a :meth:`Relation.mark <repro.database.relation.Relation.mark>`
    on every relation of ``nodes`` (default: all of them), taken when both
    sides of a boundary (coordinator and worker, or a run's start and end)
    hold the same rows.  After that the reader visits only the relations the
    system's :class:`~repro.database.relation.Touched` set reports written
    since its previous visit: :meth:`mark` moves their marks up,
    :meth:`Change.read` reads beyond them.  A relation nobody wrote keeps a
    mark that still holds.
    """

    def __init__(self, system: "P2PSystem", nodes: Iterable[NodeId] | None = None):
        self.nodes = None if nodes is None else frozenset(nodes)
        self._since = system.touched.read()
        self.marks: dict[tuple[NodeId, str], Mark] = {
            (node_id, relation.name): relation.mark()
            for node_id in (system.nodes if self.nodes is None else self.nodes)
            for relation in system.node(node_id).database.relations()
        }

    def touched(self, system: "P2PSystem") -> list[tuple[tuple[NodeId, str], Relation]]:
        """``(key, relation)`` of ``nodes``' relations written since the last
        visit, oldest write first; calling it is the next visit."""
        nodes = self.nodes
        keys = system.touched.since(self._since)
        self._since = system.touched.read()
        touched = []
        for key in reversed(keys):
            node = system.nodes.get(key[0])
            if node is None or (nodes is not None and key[0] not in nodes):
                continue
            relation = node.database.get(key[1])
            if relation is not None:
                touched.append((key, relation))
        return touched

    def mark(self, system: "P2PSystem") -> None:
        """Record that the other side holds what the relations written since
        the last visit hold now."""
        marks = self.marks
        for key, relation in self.touched(system):
            marks[key] = relation.mark()


@dataclass(frozen=True)
class Change:
    """What changed in a network: the record every boundary ships.

    ``inserts`` and ``removes`` map node → relation → rows.  ``replaces``
    maps node → relation → the relation's whole new content; only
    :meth:`read` emits it, because a mark that no longer validates cannot
    name the rows that vanished.  ``relations`` lists per node the schemas
    of relations new to the receiving side.  ``add_rules`` are rules to
    install, ``remove_rules`` ids of rules to uninstall; an edit is both.

    :meth:`apply` checks first, then mutates in one canonical order — rules
    out, rules in, relations created, rows out, rows in, replaces — so a
    change applies whole or not at all.  :meth:`union` and :meth:`between`
    return rows in canonical (sorted) order.
    """

    inserts: Rows = field(default_factory=dict)
    removes: Rows = field(default_factory=dict)
    replaces: Rows = field(default_factory=dict)
    relations: Mapping[NodeId, tuple[RelationSchema, ...]] = field(
        default_factory=dict
    )
    add_rules: tuple[CoordinationRule, ...] = ()
    remove_rules: tuple[str, ...] = ()

    @property
    def rows_only(self) -> bool:
        """True when the change only inserts and removes rows: the warm
        engines' delta-path eligibility.

        No rule is edited, no relation is new and none is rewritten whole.
        A removal retracts nothing already derived (``deleteLink`` keeps
        imported data, paper Section 4), so every rule is monotone and a
        removal can only unsatisfy the rules whose head wrote the row: the
        delta path re-fires exactly those (``docs/incremental.md``).  An
        *empty* change qualifies: an incremental run seeded with nothing is
        a legitimate no-op (the network is already at its fix-point,
        Lemma 1).
        """
        return not any(
            (self.replaces, self.relations, self.add_rules, self.remove_rules)
        )

    @property
    def insert_only(self) -> bool:
        """True when the change only adds rows.

        What :mod:`repro.faults.reconcile` needs to merge logs
        order-insensitively; the delta path takes any :attr:`rows_only`
        change.
        """
        return self.rows_only and not self.removes

    @property
    def empty(self) -> bool:
        """True when nothing changed at all."""
        return not self.inserts and self.insert_only

    @property
    def inserted_rows(self) -> int:
        """Total number of inserted rows across all nodes and relations."""
        return sum(len(rows) for by in self.inserts.values() for rows in by.values())

    @classmethod
    def read(cls, system: "P2PSystem", marks: RelationMarks) -> "Change":
        """How ``system``'s relations moved since ``marks``; moves the marks up.

        ``marks`` hold a :meth:`Relation.mark
        <repro.database.relation.Relation.mark>` per ``(node, relation)`` of
        what the other side has; only the relations written since their last
        visit are read (:meth:`RelationMarks.touched`).  A valid mark
        ships the rows appended since, in insertion order, and the rows a
        ``delete`` took since as ``removes`` (a row deleted and put back, or
        inserted and deleted, ships as neither); a failed one (a clear, a
        swapped relation, deletes older than the relation's delete log) a
        whole-relation replace; a missing one the replace plus the schema.
        """
        inserts: dict[NodeId, dict[str, tuple[Row, ...]]] = {}
        removes: dict[NodeId, dict[str, tuple[Row, ...]]] = {}
        replaces: dict[NodeId, dict[str, tuple[Row, ...]]] = {}
        relations: dict[NodeId, tuple[RelationSchema, ...]] = {}
        known = marks.marks
        for key, relation in marks.touched(system):
            node_id, name = key
            moved = relation.since(known.get(key))
            if moved is None:
                if key not in known:
                    relations[node_id] = (*relations.get(node_id, ()), relation.schema)
                replaces.setdefault(node_id, {})[name] = tuple(relation)
            else:
                added, removed = moved
                if not (added or removed):
                    continue  # nothing moved: the mark still holds
                if added:
                    inserts.setdefault(node_id, {})[name] = added
                if removed:
                    removes.setdefault(node_id, {})[name] = removed
            known[key] = relation.mark()
        return cls(
            inserts=inserts, removes=removes, replaces=replaces, relations=relations
        )

    @classmethod
    def between(cls, baseline: Snapshot, current: Snapshot) -> "Change":
        """The rows taking snapshot ``baseline`` to ``current`` (absent = empty)."""
        inserts: dict[NodeId, dict[str, tuple[Row, ...]]] = {}
        removes: dict[NodeId, dict[str, tuple[Row, ...]]] = {}
        for node_id in {*baseline, *current}:
            before, after = baseline.get(node_id, {}), current.get(node_id, {})
            for name in {*before, *after}:
                old = frozenset(before.get(name, ()))
                new = frozenset(after.get(name, ()))
                if new - old:
                    inserts.setdefault(node_id, {})[name] = _canonical(new - old)
                if old - new:
                    removes.setdefault(node_id, {})[name] = _canonical(old - new)
        return cls(inserts=inserts, removes=removes)

    def union(self, other: "Change") -> "Change":
        """Both changes as one, set-wise on every row and rule field.

        The result is canonical, so union is idempotent, commutative and
        associative (what :mod:`repro.faults.reconcile` relies on), and a
        worker's fold of its changes keeps their ``inserts``, ``removes`` and
        :attr:`rows_only` exactly.
        """
        rules = {rule.text: rule for rule in (*self.add_rules, *other.add_rules)}
        relations: dict[NodeId, set[RelationSchema]] = {}
        for source in (self.relations, other.relations):
            for node_id, schemas in source.items():
                relations.setdefault(node_id, set()).update(schemas)
        return Change(
            inserts=_union_rows(self.inserts, other.inserts),
            removes=_union_rows(self.removes, other.removes),
            replaces=_union_rows(self.replaces, other.replaces),
            relations={
                node_id: tuple(sorted(schemas, key=repr))
                for node_id, schemas in relations.items()
            },
            add_rules=tuple(rules[text] for text in sorted(rules)),
            remove_rules=tuple(sorted({*self.remove_rules, *other.remove_rules})),
        )

    def only(self, nodes: Container[NodeId]) -> "Change":
        """The slice of ``nodes``' rows and relations; rule changes stay whole."""
        sliced = {
            name: {n: v for n, v in getattr(self, name).items() if n in nodes}
            for name in ("inserts", "removes", "replaces", "relations")
        }
        return replace(self, **sliced)

    @classmethod
    def from_json(cls, document: object) -> "Change":
        """Parse a served ``{inserts, removes, add_rules, remove_rules}`` document.

        Unknown fields are rejected (the same strictness as the fault-plan
        and scenario loaders): a typo like ``"insert"`` silently doing
        nothing would be the worst failure mode for a write API.
        """
        if not isinstance(document, Mapping):
            raise ChangeError("update body must be a JSON object")
        fields = {"inserts", "removes", "add_rules", "remove_rules"}
        unknown = set(document) - fields
        if unknown:
            raise ChangeError(
                f"unknown update field(s) {sorted(unknown)}; expected {sorted(fields)}"
            )
        return cls(
            inserts=_parse_rows(document.get("inserts", {}), "inserts"),
            removes=_parse_rows(document.get("removes", {}), "removes"),
            add_rules=tuple(map(_parse_rule, document.get("add_rules", ()))),
            remove_rules=tuple(map(str, document.get("remove_rules", ()))),
        )

    def to_json(self) -> dict:
        """The served update document; :meth:`from_json` reads it back."""
        if self.replaces or self.relations:
            raise ChangeError("replaces and new relations have no document form")
        return {
            "inserts": self._rows_json(self.inserts),
            "removes": self._rows_json(self.removes),
            "add_rules": [rule.text for rule in self.add_rules],
            "remove_rules": list(self.remove_rules),
        }

    @staticmethod
    def _rows_json(by_node: Rows) -> dict:
        return {
            node_id: {name: list(map(list, rows)) for name, rows in rels.items()}
            for node_id, rels in by_node.items()
        }

    def check(self, system: "P2PSystem") -> None:
        """Raise :class:`~repro.errors.ChangeError` unless all of it applies.

        Only what this change can break is checked (Decker's discipline): the
        names it uses, row arity, a row both inserted and removed, rule ids
        unique after its removals and — when it adds rules — weak acyclicity
        of the result (``T001``: else the chase may never stop; a rule set
        that was not weakly acyclic before is let through).
        """
        removed: set[str] = set()
        for rule_id in self.remove_rules:
            if rule_id not in system.registry or rule_id in removed:
                raise ChangeError(f"unknown rule id {rule_id!r}")
            removed.add(rule_id)
        if self.add_rules:
            # Imported here: the analysis package imports the sharding layer,
            # which imports this module.
            from repro.analysis.positions import existential_cycles, is_weakly_acyclic

            kept = [rule for rule in system.registry if rule.rule_id not in removed]
            taken = {rule.rule_id for rule in kept}
            for rule in self.add_rules:
                if rule.rule_id in taken:
                    raise ChangeError(f"rule id {rule.rule_id!r} already registered")
                taken.add(rule.rule_id)
                for node_id in (rule.target, *rule.sources):
                    if node_id not in system.nodes:
                        raise ChangeError(
                            f"rule {rule.rule_id!r} mentions unknown node {node_id!r}"
                        )
            cycles = existential_cycles([*kept, *self.add_rules])
            if cycles and is_weakly_acyclic(kept):
                culprits = ", ".join(sorted({edge.rule_id for edge in cycles}))
                raise ChangeError(
                    f"T001: the added rules close an existential cycle (rules "
                    f"{culprits}), so the chase may never terminate"
                )
        named = {*self.inserts, *self.removes, *self.replaces, *self.relations}
        for node_id in sorted(named):
            if node_id not in system.nodes:
                raise ChangeError(f"change references unknown node {node_id!r}")
            database = system.nodes[node_id].database
            arity = {schema.name: schema.arity for schema in database.schema}
            for schema in self.relations.get(node_id, ()):
                arity.setdefault(schema.name, schema.arity)
            for what in ("inserts", "removes", "replaces"):
                for name, rows in getattr(self, what).get(node_id, {}).items():
                    if name not in arity:
                        raise ChangeError(
                            f"{what} reference unknown relation {name!r} at "
                            f"node {node_id!r}"
                        )
                    for row in rows:
                        if len(row) != arity[name]:
                            raise ChangeError(
                                f"{what}[{node_id!r}][{name!r}] row {row!r} has "
                                f"arity {len(row)}, schema wants {arity[name]}"
                            )
            inserted = self.inserts.get(node_id, {})
            for name, rows in self.removes.get(node_id, {}).items():
                both = set(rows).intersection(inserted.get(name, ()))
                if both:
                    raise ChangeError(
                        f"rows {sorted(both, key=repr)} of {name!r} at node "
                        f"{node_id!r} are both inserted and removed"
                    )

    def apply(self, system: "P2PSystem") -> int:
        """:meth:`check`, then mutate ``system``; returns the rows changed.

        The order is rules out, rules in, relations created, rows out, rows
        in, replaces.  A replace inserts the shipped rows and then deletes
        the rest, so a relation that only grew keeps its mark and indexes.
        """
        self.check(system)
        for rule_id in self.remove_rules:
            system.remove_rule(rule_id)
        for rule in self.add_rules:
            system.add_rule(rule)
        for node_id, schemas in self.relations.items():
            database = system.node(node_id).database
            for schema in schemas:
                if schema.name not in database:
                    database.add_relation(schema)
        changed = 0
        for node_id, relations in self.removes.items():
            for name, rows in relations.items():
                relation = system.node(node_id).database.relation(name)
                changed += sum(relation.delete(row) for row in rows)
        for node_id, relations in self.inserts.items():
            for name, rows in relations.items():
                changed += system.node(node_id).database.insert_many(name, rows)
        for node_id, relations in self.replaces.items():
            for name, rows in relations.items():
                relation = system.node(node_id).database.relation(name)
                changed += relation.insert_many(rows)
                if len(relation) > len(rows):
                    for row in set(relation).difference(rows):
                        changed += relation.delete(row)
        return changed


# ------------------------------------------------------------- fingerprints


def rules_fingerprint(rules: Iterable[CoordinationRule]) -> dict[str, str]:
    """``rule_id -> rule.text`` for a rule set.

    The text captures body, head and comparisons, so editing a rule under
    the same id reads as remove + add.
    """
    return {rule.rule_id: rule.text for rule in rules}
