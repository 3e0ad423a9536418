"""The per-peer local database (the paper's LDB behind the Wrapper).

:class:`LocalDatabase` groups the relations of one peer, answers conjunctive
queries, and applies the chase-style update step of algorithm A6
(:meth:`LocalDatabase.apply_view_tuples`): given a rule head and a set of
answer tuples for its distinguished variables, insert the corresponding head
facts, inventing deterministic labelled nulls for existential variables.
"""

from __future__ import annotations

import time
import weakref
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from repro.database.evaluate import evaluate_body, evaluate_query
from repro.database.nulls import SkolemFactory
from repro.database.query import Atom, ConjunctiveQuery, Constant, Variable
from repro.database.query import constant_types
from repro.database.relation import Relation, Row, Touched, row_picker
from repro.database.schema import DatabaseSchema, RelationSchema
from repro.errors import QueryError, SchemaError

if TYPE_CHECKING:
    from repro.obs.metrics import ChaseProfile


class _HeadTemplate:
    """A6's head template: every head position is a column of (answer
    columns + head constants + invented nulls).

    Holds the distinguished names, the head constants, the existential
    names, the picker building a row from those columns, and the positions
    filled by constants or distinguished variables.  One per (head,
    distinguished) shape, shared by every database (:func:`_head_template`).
    """

    __slots__ = (
        "names",
        "constants",
        "existentials",
        "build",
        "known_positions",
        "__weakref__",
    )

    def __init__(self, head: Atom, distinguished: tuple[Variable, ...]):
        names = self.names = tuple(variable.name for variable in distinguished)
        width = len(names)
        constants = self.constants = tuple(
            term.value for term in head.terms if isinstance(term, Constant)
        )
        existentials = self.existentials = tuple(
            dict.fromkeys(
                term.name
                for term in head.terms
                if isinstance(term, Variable) and term.name not in names
            )
        )
        columns: list[int] = []
        known_positions: list[int] = []
        next_constant = width
        for position, term in enumerate(head.terms):
            if isinstance(term, Constant):
                columns.append(next_constant)
                next_constant += 1
            elif term.name in names:
                columns.append(names.index(term.name))
            else:
                columns.append(width + len(constants) + existentials.index(term.name))
                continue
            known_positions.append(position)
        self.build = row_picker(columns)
        self.known_positions = known_positions


#: Interned head templates; weak values, so a template goes with the last
#: database whose rule ids use it.
_HEAD_TEMPLATES: "weakref.WeakValueDictionary[tuple, _HeadTemplate]" = (
    weakref.WeakValueDictionary()
)


def _head_template(head: Atom, distinguished: tuple[Variable, ...]) -> _HeadTemplate:
    """The template of ``head`` over ``distinguished``, compiled once per
    shape; keyed with the head constants' types, since ``Constant(1) ==
    Constant(True)`` but each head emits its own."""
    key = (head, distinguished, constant_types(head.terms))
    template = _HEAD_TEMPLATES.get(key)
    if template is None:
        template = _HEAD_TEMPLATES[key] = _HeadTemplate(head, distinguished)
    return template


class _Relations(dict):
    """A database's ``name -> Relation`` table, attaching whatever it holds.

    Any relation put in — created by :meth:`LocalDatabase.add_relation` or
    swapped in behind the database's back — reports its changes to the
    system's :class:`~repro.database.relation.Touched` set under the key
    ``(node_id, name)``, and the putting-in is its first report.
    """

    #: Where the relations report, and the node they belong to; class-level
    #: defaults, so a table being unpickled attaches nothing.
    touched: Touched | None = None
    node_id: str | None = None

    def __setitem__(self, name: str, relation: Relation) -> None:
        super().__setitem__(name, relation)
        if self.touched is not None:
            relation.attach(self.touched, (self.node_id, name))


class LocalDatabase:
    """An in-memory relational database for one peer."""

    def __init__(self, schema: DatabaseSchema | Iterable[RelationSchema] = ()):
        # A copy, also of a DatabaseSchema: add_relation mutates it, and the
        # caller's object (a ScenarioSpec's, say) may build other databases.
        self.schema = DatabaseSchema(schema)
        self._relations = _Relations({rel.name: Relation(rel) for rel in self.schema})
        self.skolems = SkolemFactory()
        #: A6 projection-check profiling sink; attached by traced sessions
        #: (None keeps the chase on the unprofiled fast path).
        self.profile: ChaseProfile | None = None
        # rule id -> (head, distinguished, _head_template(head, distinguished)),
        # looked up again when the id presents another head or variable tuple.
        self._head_templates: dict[str, tuple] = {}

    # ----------------------------------------------------------------- schema

    def attach(self, touched: Touched, node_id: str) -> None:
        """Make every relation, now and later, report its changes to
        ``touched`` under ``(node_id, relation name)`` (done by the system
        the database joins)."""
        relations = self._relations
        relations.touched, relations.node_id = touched, node_id
        for name, relation in relations.items():
            relation.attach(touched, (node_id, name))

    def add_relation(self, relation_schema: RelationSchema) -> None:
        """Add a new (empty) relation to the database."""
        self.schema.add(relation_schema)
        self._relations[relation_schema.name] = Relation(relation_schema)

    def relation(self, name: str) -> Relation:
        """Return the relation named ``name`` (raises :class:`SchemaError`)."""
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None

    def get(self, name: str) -> Relation | None:
        """The relation named ``name``, or None when there is none."""
        return self._relations.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def relations(self) -> Iterator[Relation]:
        """Iterate over all relations."""
        return iter(self._relations.values())

    # ----------------------------------------------------------------- facts

    def insert(self, relation_name: str, row: Row) -> bool:
        """Insert one row; returns True if the database changed."""
        return self.relation(relation_name).insert(row)

    def insert_many(self, relation_name: str, rows: Iterable[Row]) -> int:
        """Insert many rows; returns the number of new rows."""
        return self.relation(relation_name).insert_many(rows)

    def delete(self, relation_name: str, row: Row) -> bool:
        """Delete one row; returns True if it was present."""
        return self.relation(relation_name).delete(row)

    def total_rows(self) -> int:
        """Total number of rows across all relations."""
        return sum(len(rel) for rel in self._relations.values())

    def facts(self) -> dict[str, frozenset[Row]]:
        """A snapshot mapping relation name to its rows."""
        return {name: rel.rows() for name, rel in self._relations.items()}

    def clear(self) -> None:
        """Remove every row from every relation and forget invented nulls."""
        for relation in self._relations.values():
            relation.clear()
        self.skolems.reset()

    # ----------------------------------------------------------------- queries

    def query(self, query: ConjunctiveQuery) -> set[tuple]:
        """Evaluate a conjunctive query against this database."""
        return evaluate_query(self, query)

    def bindings(self, query: ConjunctiveQuery) -> list[dict[Variable, object]]:
        """All satisfying bindings of a query body (for debugging / tests)."""
        return list(evaluate_body(self, query))

    # ------------------------------------------------------------------ chase

    def apply_view_tuples(
        self,
        rule_id: str,
        head: Atom,
        distinguished: tuple[Variable, ...],
        answers: Iterable[tuple],
    ) -> set[Row]:
        """Algorithm A6 (`UpdateLocalData`): materialise head facts.

        ``answers`` holds one tuple per firing, giving the values of the
        ``distinguished`` (universally quantified) head variables; existential
        head variables are filled with deterministic labelled nulls from the
        Skolem factory.

        Following the paper's pseudo-code ("if πR(t) ∉ R insert (πR(t)) into R
        with new values for existential"), a firing is skipped when some
        existing row already agrees with it on every *known* position — the
        positions filled by constants or distinguished variables.  This check
        is what makes the fix-point reachable on cyclic rule sets with
        existential variables.

        Returns the set of head rows that were actually new (empty set means
        the local fix-point condition "no new data" holds for this batch).
        """
        if head.relation not in self.schema:
            raise SchemaError(
                f"rule {rule_id!r} targets unknown relation {head.relation!r}"
            )
        relation = self.relation(head.relation)
        if relation.schema.arity != head.arity:
            raise QueryError(
                f"rule {rule_id!r} head {head} does not match the arity of "
                f"relation {head.relation!r}"
            )

        # The head template, compiled once per shape: the one cached for the
        # rule id holds for as long as the id comes with the very same head
        # and variable tuple (identity: an equal head may differ in its
        # constants' types).
        cached = self._head_templates.get(rule_id)
        if cached is None or cached[0] is not head or cached[1] is not distinguished:
            cached = self._head_templates[rule_id] = (
                head,
                distinguished,
                _head_template(head, distinguished),
            )
        template = cached[2]
        names, constants, existentials = (
            template.names,
            template.constants,
            template.existentials,
        )
        build, known_positions = template.build, template.known_positions
        width = len(names)
        null_for = self.skolems.null_for

        profile = self.profile
        if profile is not None:
            profile.calls += 1
            profile_started = time.perf_counter()

        inserted: set[Row] = set()
        for answer in answers:
            if len(answer) != width:
                raise QueryError(
                    f"answer {answer!r} does not match distinguished variables "
                    f"{[str(v) for v in distinguished]} of rule {rule_id!r}"
                )
            if existentials:
                # The Skolem term is a function of the firing's binding; only
                # a head with existentials needs that dict built.
                binding = dict(zip(names, answer))
                nulls = [null_for(rule_id, name, binding) for name in existentials]
                row = build((*answer, *constants, *nulls))
            elif constants:
                row = build((*answer, *constants))
            else:
                row = build(answer)
            if existentials:
                present, scanned = self._projection_present(
                    relation, row, known_positions
                )
                if profile is not None:
                    profile.projection_checks += 1
                    profile.candidates_scanned += scanned
                    profile.skipped_by_projection += present
                if present:
                    continue
            if relation.insert(row):
                inserted.add(row)

        if profile is not None:
            profile.rows_inserted += len(inserted)
            profile.wall_seconds += time.perf_counter() - profile_started
        return inserted

    @staticmethod
    def _projection_present(
        relation: Relation, row: Row, known_positions: list[int]
    ) -> tuple[bool, int]:
        """Whether some existing row agrees with ``row`` on all known positions,
        and how many candidates were scanned to find out."""
        if not known_positions:
            return len(relation) > 0, 0
        candidates = relation.lookup(known_positions[0], row[known_positions[0]])
        scanned = 0
        for candidate in candidates:
            scanned += 1
            if all(candidate[p] == row[p] for p in known_positions[1:]):
                return True, scanned
        return False, scanned

    # ------------------------------------------------------------------ misc

    def copy(self) -> "LocalDatabase":
        """A deep copy with independent relations (nulls are shared values)."""
        clone = LocalDatabase(self.schema)
        for name, relation in self._relations.items():
            clone._relations[name] = relation.copy()
        return clone

    def snapshot(self) -> Mapping[str, frozenset[Row]]:
        """Alias of :meth:`facts`, used by the experiment harness."""
        return self.facts()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LocalDatabase):
            return NotImplemented
        return self.facts() == other.facts()

    def __repr__(self) -> str:
        parts = ", ".join(f"{name}:{len(rel)}" for name, rel in self._relations.items())
        return f"LocalDatabase({parts})"
