"""The mutable rule set of a whole P2P system.

The super-peer of the paper's prototype "can read coordination rules for all
peers from a file and broadcast this file to all peers on the network", and
the dynamic-network model of Section 4 manipulates the system exclusively via
``addLink`` / ``deleteLink`` operations on rules.  :class:`RuleRegistry` is the
corresponding in-library object: a collection of coordination rules indexed by
target node, source node and rule id, from which the dependency graph and the
per-node rule views are derived.
"""

from __future__ import annotations

from itertools import count
from typing import Iterable, Iterator

from repro.coordination.depgraph import DependencyGraph
from repro.coordination.rule import CoordinationRule, NodeId
from repro.errors import ChangeError, RuleError


#: Rule-set versions, drawn process-wide so no two registries share one.
_VERSIONS = count(1)


class RuleRegistry:
    """All coordination rules of a P2P system, with add/delete semantics."""

    def __init__(self, rules: Iterable[CoordinationRule] = ()):
        #: Moves on every add and remove: a reader that remembers it knows
        #: the rule set is unchanged without comparing a single rule.
        self.version = next(_VERSIONS)
        self._rules: dict[str, CoordinationRule] = {}
        self._by_target: dict[NodeId, set[str]] = {}
        self._by_source: dict[NodeId, set[str]] = {}
        for rule in rules:
            self.add(rule)

    # ------------------------------------------------------------- mutation

    def add(self, rule: CoordinationRule) -> None:
        """Register a rule.

        Definition 8 requires rule names to be unique for a given pair of
        nodes; we enforce the stronger (and simpler) global uniqueness of rule
        ids, which the paper's examples also satisfy.
        """
        if rule.rule_id in self._rules:
            raise ChangeError(f"rule id {rule.rule_id!r} already registered")
        self._rules[rule.rule_id] = rule
        self.version = next(_VERSIONS)
        self._by_target.setdefault(rule.target, set()).add(rule.rule_id)
        for source in rule.sources:
            self._by_source.setdefault(source, set()).add(rule.rule_id)

    def remove(self, rule_id: str) -> CoordinationRule:
        """Remove and return the rule named ``rule_id``."""
        rule = self._rules.pop(rule_id, None)
        if rule is None:
            raise ChangeError(f"unknown rule id {rule_id!r}")
        self.version = next(_VERSIONS)
        self._by_target[rule.target].discard(rule_id)
        for source in rule.sources:
            self._by_source[source].discard(rule_id)
        return rule

    # -------------------------------------------------------------- queries

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._rules

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[CoordinationRule]:
        return iter(self._rules.values())

    def get(self, rule_id: str) -> CoordinationRule:
        """Return the rule named ``rule_id`` or raise :class:`RuleError`."""
        try:
            return self._rules[rule_id]
        except KeyError:
            raise RuleError(f"unknown rule id {rule_id!r}") from None

    def rules_targeting(self, node: NodeId) -> tuple[CoordinationRule, ...]:
        """Rules whose head is at ``node`` (the node's incoming-data rules)."""
        ids = sorted(self._by_target.get(node, set()))
        return tuple(self._rules[rule_id] for rule_id in ids)

    def rules_sourced_at(self, node: NodeId) -> tuple[CoordinationRule, ...]:
        """Rules that read data from ``node``."""
        ids = sorted(self._by_source.get(node, set()))
        return tuple(self._rules[rule_id] for rule_id in ids)

    def nodes(self) -> frozenset[NodeId]:
        """Every node mentioned by some rule."""
        mentioned: set[NodeId] = set()
        for rule in self._rules.values():
            mentioned.add(rule.target)
            mentioned.update(rule.sources)
        return frozenset(mentioned)

    def dependency_graph(self, nodes: Iterable[NodeId] = ()) -> DependencyGraph:
        """The dependency graph induced by the current rule set."""
        return DependencyGraph.from_rules(self._rules.values(), nodes=nodes)

    def copy(self) -> "RuleRegistry":
        """An independent copy (rules themselves are immutable)."""
        return RuleRegistry(self._rules.values())

    def __repr__(self) -> str:
        return f"RuleRegistry({len(self._rules)} rules over {len(self.nodes())} nodes)"
