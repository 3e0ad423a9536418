"""Unit tests for coordination rules."""

import pytest

from repro.coordination.rule import CoordinationRule, rule_from_text
from repro.database.parser import parse_atom
from repro.database.query import Variable
from repro.errors import RuleError


class TestConstruction:
    def test_rule_from_text_single_source(self):
        rule = rule_from_text("r1", "E: e(X, Y) -> B: b(X, Y)")
        assert rule.rule_id == "r1"
        assert rule.target == "B"
        assert rule.sources == ("E",)
        assert rule.source == "E"

    def test_rule_from_text_with_comparison(self):
        rule = rule_from_text("r4", "B: b(X, Y), b(X, Z), X != Z -> A: a(X, Y)")
        assert len(rule.comparisons) == 1
        assert rule.target == "A"

    def test_multi_source_rule(self):
        rule = rule_from_text("m", "B: b(X, Y), D: d(Y, Z) -> C: c(X, Z)")
        assert rule.sources == ("B", "D")
        with pytest.raises(RuleError):
            _ = rule.source

    def test_empty_body_rejected(self):
        with pytest.raises(RuleError):
            CoordinationRule("r", "A", parse_atom("a(X)"), [])

    def test_empty_rule_id_rejected(self):
        with pytest.raises(RuleError):
            CoordinationRule("", "A", parse_atom("a(X)"), [("B", parse_atom("b(X)"))])

    def test_body_at_target_rejected(self):
        with pytest.raises(RuleError):
            CoordinationRule("r", "A", parse_atom("a(X)"), [("A", parse_atom("b(X)"))])

    def test_str_contains_arrow(self):
        rule = rule_from_text("r1", "E: e(X, Y) -> B: b(X, Y)")
        assert "->" in str(rule)
        assert "r1" in str(rule)


class TestDerivedProperties:
    def test_distinguished_and_existential_variables(self):
        rule = rule_from_text("r", "B: b(X, Y) -> A: a(X, Z)")
        assert rule.distinguished_variables == (Variable("X"),)
        assert rule.existential_variables == (Variable("Z"),)

    def test_dependency_edges_point_from_target_to_sources(self):
        rule = rule_from_text("m", "B: b(X, Y), D: d(Y, Z) -> C: c(X, Z)")
        assert set(rule.dependency_edges) == {("C", "B"), ("C", "D")}

    def test_body_query_for_source(self):
        rule = rule_from_text("m", "B: b(X, Y), D: d(Y, Z), X != Z -> C: c(X, Z)")
        at_b = rule.body_query_for("B")
        assert [atom.relation for atom in at_b.body] == ["b"]
        # The X != Z comparison spans both fragments, so it stays out of B's.
        assert at_b.comparisons == ()

    def test_body_query_for_source_keeps_local_comparisons(self):
        rule = rule_from_text("m", "B: b(X, Y), X != Y -> C: c(X, Y)")
        at_b = rule.body_query_for("B")
        assert len(at_b.comparisons) == 1

    def test_body_query_for_unknown_node(self):
        rule = rule_from_text("r", "B: b(X, Y) -> A: a(X, Y)")
        with pytest.raises(RuleError):
            rule.body_query_for("Z")

    def test_body_relations_at(self):
        rule = rule_from_text(
            "m", "B: b(X, Y), b(Y, Z), D: d(Z, W) -> C: c(X, W)"
        )
        assert rule.body_query_for("B").relations == ("b",)
        assert rule.body_query_for("D").relations == ("d",)

    def test_query_property_round_trips_head_and_body(self):
        rule = rule_from_text("r2", "B: b(X, Y), b(Y, Z) -> C: c(X, Z)")
        query = rule.query
        assert query.head.relation == "c"
        assert len(query.body) == 2
