"""Unit tests for the centralized, acyclic and query-time baselines."""

import pytest

from repro.baselines.acyclic import acyclic_update
from repro.baselines.centralized import apply_rule, centralized_update
from repro.baselines.querytime import query_time_answer
from repro.coordination.rule import rule_from_text
from repro.database.database import LocalDatabase
from repro.database.nulls import is_null
from repro.database.parser import parse_query
from repro.database.schema import DatabaseSchema, RelationSchema
from repro.errors import ReproError
from repro.workloads.scenarios import (
    paper_example_data,
    paper_example_rules,
    paper_example_schemas,
)


def chain_setup():
    schemas = {
        name: DatabaseSchema([RelationSchema("item", ["x", "y"])])
        for name in ("a", "b", "c")
    }
    rules = [
        rule_from_text("ab", "b: item(X, Y) -> a: item(X, Y)"),
        rule_from_text("bc", "c: item(X, Y) -> b: item(X, Y)"),
    ]
    data = {"c": {"item": [("1", "2"), ("3", "4")]}}
    return schemas, rules, data


class TestCentralized:
    def test_chain_propagates_to_root(self):
        schemas, rules, data = chain_setup()
        result = centralized_update(schemas, rules, data)
        assert result.databases["a"].relation("item").rows() == {("1", "2"), ("3", "4")}
        assert result.rounds >= 2

    def test_fixpoint_is_closed_under_rules(self):
        result = centralized_update(
            paper_example_schemas(), paper_example_rules(), paper_example_data()
        )
        # Re-running from the fix-point adds nothing.
        snapshot = result.snapshot()
        again = centralized_update(
            paper_example_schemas(), paper_example_rules(),
            {node: {rel: list(rows) for rel, rows in rels.items()}
             for node, rels in snapshot.items()},
        )
        assert again.snapshot() == snapshot

    def test_existential_rule_invents_null(self):
        schemas = {
            "a": DatabaseSchema([RelationSchema("a", ["x", "y"])]),
            "b": DatabaseSchema([RelationSchema("b", ["x"])]),
        }
        rules = [rule_from_text("r", "b: b(X) -> a: a(X, Z)")]
        data = {"b": {"b": [("1",)]}}
        result = centralized_update(schemas, rules, data)
        ((x, z),) = result.databases["a"].relation("a").rows()
        assert x == "1" and is_null(z)

    def test_counters(self):
        schemas, rules, data = chain_setup()
        result = centralized_update(schemas, rules, data)
        assert result.tuples_inserted == 4
        assert result.rule_applications >= len(rules)

    def test_one_chase_step_reports_the_rows_it_inserts(self):
        schemas, (ab, bc), data = chain_setup()
        databases = {node: LocalDatabase(schema) for node, schema in schemas.items()}
        databases["c"].insert_many("item", data["c"]["item"])
        assert apply_rule(databases, ab) == set()
        assert apply_rule(databases, bc) == {("1", "2"), ("3", "4")}
        assert apply_rule(databases, bc) == set()
        del databases["c"]  # a source without a database fires nothing
        assert apply_rule(databases, bc) == set()

    def test_empty_rule_set(self):
        schemas, _rules, data = chain_setup()
        result = centralized_update(schemas, [], data)
        assert result.rounds == 1
        assert result.tuples_inserted == 0


class TestAcyclic:
    def test_matches_centralized_on_chain(self):
        schemas, rules, data = chain_setup()
        acyclic = acyclic_update(schemas, rules, data)
        central = centralized_update(schemas, rules, data)
        assert acyclic.snapshot() == central.snapshot()

    def test_refuses_cyclic_network(self):
        with pytest.raises(ReproError):
            acyclic_update(
                paper_example_schemas(), paper_example_rules(), paper_example_data()
            )

    def test_force_runs_single_pass_on_cycle(self):
        result = acyclic_update(
            paper_example_schemas(),
            paper_example_rules(),
            paper_example_data(),
            force=True,
        )
        central = centralized_update(
            paper_example_schemas(), paper_example_rules(), paper_example_data()
        )
        # A single pass over a cyclic network misses data the fix-point has.
        assert result.tuples_inserted <= central.tuples_inserted

    def test_single_round(self):
        schemas, rules, data = chain_setup()
        assert acyclic_update(schemas, rules, data).rounds == 1


class TestQueryTime:
    def test_answers_match_centralized(self):
        schemas, rules, data = chain_setup()
        query = parse_query("q(X, Y) :- item(X, Y)")
        result = query_time_answer(schemas, rules, data, "a", query)
        central = centralized_update(schemas, rules, data)
        assert set(result.answers) == central.databases["a"].query(query)

    def test_messages_are_counted(self):
        schemas, rules, data = chain_setup()
        query = parse_query("q(X, Y) :- item(X, Y)")
        result = query_time_answer(schemas, rules, data, "a", query)
        assert result.messages > 0
        assert result.nodes_contacted == 2

    def test_leaf_node_needs_no_messages(self):
        schemas, rules, data = chain_setup()
        query = parse_query("q(X, Y) :- item(X, Y)")
        result = query_time_answer(schemas, rules, data, "c", query)
        assert result.messages == 0
        assert set(result.answers) == {("1", "2"), ("3", "4")}

    @pytest.mark.parametrize("node, contacted", [("A", 4), ("B", 4), ("E", 0)])
    def test_works_on_cyclic_example(self, node, contacted):
        # The queried peer holds its share of the whole network's fix-point.
        # All but E reach the other four; each round then fetches through
        # the seven single-source rules, one query and one answer each.
        query = parse_query(f"q(X, Y) :- {node.lower()}(X, Y)")
        schemas, rules = paper_example_schemas(), paper_example_rules()
        data = paper_example_data()
        result = query_time_answer(schemas, rules, data, node, query)
        central = centralized_update(schemas, rules, data)
        assert set(result.answers) == central.databases[node].query(query)
        assert result.nodes_contacted == contacted
        assert result.messages == (14 * result.rounds if contacted else 0)
