"""Unit tests for the rule registry."""

import pytest

from repro.coordination.registry import RuleRegistry
from repro.coordination.rule import rule_from_text
from repro.errors import ChangeError, RuleError
from repro.workloads.scenarios import paper_example_rules


@pytest.fixture
def registry():
    return RuleRegistry(paper_example_rules())


class TestMutation:
    def test_len_and_contains(self, registry):
        assert len(registry) == 7
        assert "r1" in registry
        assert "r99" not in registry

    def test_duplicate_id_rejected(self, registry):
        with pytest.raises(ChangeError):
            registry.add(rule_from_text("r1", "E: e(X, Y) -> B: b(X, Y)"))

    def test_remove_returns_rule(self, registry):
        rule = registry.remove("r1")
        assert rule.rule_id == "r1"
        assert "r1" not in registry

    def test_remove_unknown_rule(self, registry):
        with pytest.raises(ChangeError):
            registry.remove("r99")

    def test_get_unknown_rule(self, registry):
        with pytest.raises(RuleError):
            registry.get("r99")

    def test_version_moves_on_every_add_and_remove(self, registry):
        versions = [registry.version]
        registry.remove("r1")
        versions.append(registry.version)
        registry.add(rule_from_text("r1", "E: e(X, Y) -> B: b(X, Y)"))
        versions.append(registry.version)
        with pytest.raises(ChangeError):
            registry.remove("r99")
        assert registry.version == versions[-1]
        assert len(set(versions)) == 3
        assert registry.copy().version not in versions

    def test_copy_is_independent(self, registry):
        clone = registry.copy()
        clone.remove("r1")
        assert "r1" in registry
        assert "r1" not in clone


class TestQueries:
    def test_rules_targeting(self, registry):
        targeting_b = [rule.rule_id for rule in registry.rules_targeting("B")]
        assert targeting_b == ["r1", "r3"]

    def test_rules_sourced_at(self, registry):
        sourced_at_a = {rule.rule_id for rule in registry.rules_sourced_at("A")}
        assert sourced_at_a == {"r5", "r6"}

    def test_rules_targeting_unknown_node_is_empty(self, registry):
        assert registry.rules_targeting("Z") == ()

    def test_nodes(self, registry):
        assert registry.nodes() == frozenset({"A", "B", "C", "D", "E"})

    def test_dependency_graph_round_trip(self, registry):
        graph = registry.dependency_graph()
        assert ("A", "B") in graph.edges
        assert ("B", "E") in graph.edges

    def test_removal_updates_indexes(self, registry):
        registry.remove("r1")
        assert all(rule.rule_id != "r1" for rule in registry.rules_targeting("B"))
        assert all(rule.rule_id != "r1" for rule in registry.rules_sourced_at("E"))

    def test_iteration_yields_rules(self, registry):
        assert {rule.rule_id for rule in registry} == {
            "r1", "r2", "r3", "r4", "r5", "r6", "r7"
        }
