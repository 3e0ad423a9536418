"""Coordination rules (Definition 2 of the paper).

A :class:`CoordinationRule` has a unique identifier, a *head* — an atom to be
materialised at the ``target`` node — and a *body* — a conjunction of atoms,
each located at a ``source`` node, plus built-in comparisons.  Existential
variables in the head are allowed; they are detected by comparing head and
body variables and later filled with labelled nulls by the chase step of the
local database.

The direction of the **dependency edge** derived from a rule is the opposite
of the data flow (Definition 5): data flows from the body nodes to the head
node, while the dependency edge goes from the head node (which *depends on*
its sources) to each body node.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from repro.database.parser import parse_rule_text
from repro.database.query import Atom, Comparison, ConjunctiveQuery, Variable
from repro.database.query import constant_types, field_state
from repro.errors import RuleError

NodeId = str
"""Identifier of a peer node.  The paper uses integer indexes; strings are
more readable in examples and traces and work identically."""

#: Interned per-source body queries (:meth:`CoordinationRule.body_query_for`):
#: one query per equal body, with constants told apart by type.  Weak values,
#: so an entry goes with the last rule holding its query.
_BODY_QUERIES: "weakref.WeakValueDictionary[tuple, ConjunctiveQuery]" = (
    weakref.WeakValueDictionary()
)


@dataclass(frozen=True)
class CoordinationRule:
    """A single coordination rule ``body@sources ⇒ head@target``.

    Immutable, so the queries and variable tuples derived from it are built
    once per instance — the per-source body queries once per equal body
    (:meth:`body_query_for`) — see
    :class:`~repro.database.query.ConjunctiveQuery` for how the cached
    values stay out of ``==``, ``hash``, ``repr`` and pickles.
    """

    rule_id: str
    target: NodeId
    head: Atom
    body: tuple[tuple[NodeId, Atom], ...]
    comparisons: tuple[Comparison, ...] = field(default=())

    def __init__(
        self,
        rule_id: str,
        target: NodeId,
        head: Atom,
        body: Iterable[tuple[NodeId, Atom]],
        comparisons: Iterable[Comparison] = (),
    ):
        body = tuple(body)
        comparisons = tuple(comparisons)
        if not rule_id:
            raise RuleError("rule needs a non-empty identifier")
        if not body:
            raise RuleError(f"rule {rule_id!r} has an empty body")
        for node, _atom in body:
            if node == target:
                raise RuleError(
                    f"rule {rule_id!r}: body node {node!r} equals the target; "
                    "the paper requires distinct indices"
                )
        object.__setattr__(self, "rule_id", rule_id)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "comparisons", comparisons)
        # Validate built-ins against body variables via the query constructor.
        ConjunctiveQuery(head, [atom for _node, atom in body], comparisons)

    __getstate__ = field_state

    # ----------------------------------------------------------------- derived

    @cached_property
    def sources(self) -> tuple[NodeId, ...]:
        """The distinct source (body) nodes, in order of first occurrence."""
        seen: list[NodeId] = []
        for node, _atom in self.body:
            if node not in seen:
                seen.append(node)
        return tuple(seen)

    @property
    def source(self) -> NodeId:
        """The single source node (the paper's ``id(rule)``).

        Most rules in the paper have a single-node body; rules that span
        several sources do not have *one* source, so accessing this property
        on them raises :class:`RuleError` — callers that support multi-source
        rules should use :attr:`sources` instead.
        """
        sources = self.sources
        if len(sources) != 1:
            raise RuleError(
                f"rule {self.rule_id!r} has {len(sources)} source nodes; "
                "use .sources"
            )
        return sources[0]

    @cached_property
    def query(self) -> ConjunctiveQuery:
        """The rule seen as a conjunctive query (head ← body)."""
        return ConjunctiveQuery(
            self.head, [atom for _node, atom in self.body], self.comparisons
        )

    @cached_property
    def derived(self) -> dict:
        """Where layers keep what they look up for this rule (its interned
        per-source body queries, :mod:`repro.core.update`'s join shape); same
        contract as ``ConjunctiveQuery.derived``."""
        return {}

    def body_query_for(self, node: NodeId) -> ConjunctiveQuery:
        """The part of the body located at ``node``, as a body-only query.

        This is what the head node sends to a source node when it evaluates a
        multi-source rule by fetching each source's fragment and joining
        locally.  Looked up once per node, and *interned*: every rule whose
        body at its node is equal gets the same query object, so what is
        compiled from a body (its evaluation plan, step lists and fragment
        key) is compiled once per body, not once per rule.
        """
        key = ("body_query", node)
        query = self.derived.get(key)
        if query is not None:
            return query
        atoms = tuple(atom for body_node, atom in self.body if body_node == node)
        if not atoms:
            raise RuleError(f"rule {self.rule_id!r} has no body atom at {node!r}")
        relevant_vars = {v for atom in atoms for v in atom.variables}
        comparisons = tuple(
            c for c in self.comparisons if set(c.variables) <= relevant_vars
        )
        shape = (
            atoms,
            comparisons,
            constant_types(
                [term for atom in atoms for term in atom.terms]
                + [term for c in comparisons for term in (c.left, c.right)]
            ),
        )
        query = _BODY_QUERIES.get(shape)
        if query is None:
            query = _BODY_QUERIES[shape] = ConjunctiveQuery(None, atoms, comparisons)
        self.derived[key] = query
        return query

    @cached_property
    def distinguished_variables(self) -> tuple[Variable, ...]:
        """Head variables bound by the body (the exported columns)."""
        return self.query.distinguished_variables

    @property
    def existential_variables(self) -> tuple[Variable, ...]:
        """Head variables not bound by the body."""
        return self.query.existential_variables

    @property
    def dependency_edges(self) -> tuple[tuple[NodeId, NodeId], ...]:
        """Dependency edges induced by this rule: (target → each source)."""
        return tuple((self.target, source) for source in self.sources)

    @cached_property
    def text(self) -> str:
        """The rule in arrow syntax: id, body, comparisons and head (``str``).

        Built once — a session compares rule texts
        (:func:`repro.coordination.changeset.rules_fingerprint`) whenever
        the registry's version says the rule set changed.
        """
        body = ", ".join(f"{node}:{atom}" for node, atom in self.body)
        if self.comparisons:
            body += ", " + ", ".join(str(c) for c in self.comparisons)
        return f"{self.rule_id}: {body} -> {self.target}:{self.head}"

    def __str__(self) -> str:
        return self.text


def rule_from_text(rule_id: str, text: str) -> CoordinationRule:
    """Build a rule from the paper's arrow syntax.

    Example::

        rule_from_text("r4", "B: b(X,Y), b(X,Z), X != Z -> A: a(X,Y)")
    """
    head_node, head_atom, body_literals, comparisons = parse_rule_text(text)
    return CoordinationRule(rule_id, head_node, head_atom, body_literals, comparisons)
