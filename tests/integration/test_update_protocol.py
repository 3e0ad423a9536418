"""Integration tests of the update protocol on controlled small networks."""

import time

import pytest

from repro.analysis import analyze_parts, is_weakly_acyclic
from repro.api import ScenarioSpec, Session
from repro.baselines.centralized import centralized_update
from repro.coordination.rule import rule_from_text
from repro.core.fixpoint import (
    all_nodes_closed,
    ground_part,
    verify_against_centralized,
)
from repro.core.update import join_fragments
from repro.database.nulls import is_null
from repro.database.schema import DatabaseSchema, RelationSchema
from repro.network.message import MessageType


def item_schemas(*names):
    return {
        name: DatabaseSchema([RelationSchema("item", ["x", "y"])]) for name in names
    }


class TestChainPropagation:
    def test_data_reaches_the_root(self, chain_system):
        Session(chain_system).run("update")
        assert chain_system.node("a").database.relation("item").rows() == {
            ("1", "2"),
            ("3", "4"),
        }

    def test_all_nodes_close(self, chain_system):
        Session(chain_system).run("update")
        assert all_nodes_closed(chain_system)

    def test_message_counts_are_bounded(self, chain_system):
        Session(chain_system).run("update")
        stats = chain_system.snapshot_stats()
        # 2 rules, each needs at least one query+answer; pushes and re-pull
        # rounds stay within a small constant factor.
        assert stats.messages.by_type[MessageType.QUERY.value] >= 2
        assert stats.total_messages <= 40

    def test_leaf_node_unchanged(self, chain_system):
        Session(chain_system).run("update")
        assert chain_system.node("c").database.relation("item").rows() == {
            ("1", "2"),
            ("3", "4"),
        }


class TestCyclicTwoNodeNetwork:
    def build(self):
        schemas = item_schemas("a", "b")
        rules = [
            rule_from_text("ab", "b: item(X, Y) -> a: item(X, Y)"),
            rule_from_text("ba", "a: item(X, Y) -> b: item(X, Y)"),
        ]
        data = {"a": {"item": [("a1", "a2")]}, "b": {"item": [("b1", "b2")]}}
        return (
            ScenarioSpec.of(schemas, rules, data).build_system(),
            schemas,
            rules,
            data,
        )

    def test_both_nodes_get_both_facts(self):
        system, schemas, rules, data = self.build()
        Session(system).run("update")
        expected = {("a1", "a2"), ("b1", "b2")}
        assert system.node("a").database.relation("item").rows() == expected
        assert system.node("b").database.relation("item").rows() == expected

    def test_cycle_terminates_and_closes(self):
        system, *_ = self.build()
        Session(system).run("update")
        assert all_nodes_closed(system)

    def test_matches_centralized(self):
        system, schemas, rules, data = self.build()
        Session(system).run("update")
        assert verify_against_centralized(system, schemas, rules, data).ok


class TestMultiSourceRule:
    def build(self):
        schemas = {
            "a": DatabaseSchema([RelationSchema("joined", ["x", "z"])]),
            "b": DatabaseSchema([RelationSchema("left", ["x", "y"])]),
            "c": DatabaseSchema([RelationSchema("right", ["y", "z"])]),
        }
        rules = [
            rule_from_text("j", "b: left(X, Y), c: right(Y, Z) -> a: joined(X, Z)")
        ]
        data = {
            "b": {"left": [("1", "k"), ("2", "m")]},
            "c": {"right": [("k", "9"), ("k", "8")]},
        }
        return (
            ScenarioSpec.of(schemas, rules, data).build_system(),
            schemas,
            rules,
            data,
        )

    def test_cross_peer_join(self):
        system, *_ = self.build()
        Session(system).run("update")
        assert system.node("a").database.relation("joined").rows() == {
            ("1", "9"),
            ("1", "8"),
        }

    def test_matches_centralized(self):
        system, schemas, rules, data = self.build()
        Session(system).run("update")
        assert verify_against_centralized(system, schemas, rules, data).ok

    def test_join_fragments_requires_all_sources(self):
        rule = rule_from_text(
            "j", "b: left(X, Y), c: right(Y, Z) -> a: joined(X, Z)"
        )
        only_left = {"b": {("1", "k")}}
        assert join_fragments(rule, only_left) == set()
        both = {"b": {("1", "k")}, "c": {("k", "9")}}
        assert join_fragments(rule, both) == {("1", "9")}


class TestExistentialRules:
    def test_existential_chain_terminates(self):
        schemas = {
            "a": DatabaseSchema([RelationSchema("person", ["name", "org"])]),
            "b": DatabaseSchema([RelationSchema("author", ["name"])]),
        }
        rules = [rule_from_text("r", "b: author(X) -> a: person(X, O)")]
        data = {"b": {"author": [("ada",), ("bob",)]}}
        system = ScenarioSpec.of(schemas, rules, data).build_system()
        Session(system).run("update")
        rows = system.node("a").database.relation("person").rows()
        assert len(rows) == 2
        assert all(is_null(org) for _name, org in rows)
        assert all_nodes_closed(system)

    @pytest.mark.slow
    def test_existential_cycle_terminates(self):
        # a imports from b and b imports from a, both inventing unknown values;
        # the projection check of A6 prevents an infinite chase.  The rotated
        # head (item(Y, Z)) keeps the chase alive for many rounds before the
        # projection check catches up, so this runs for >20 minutes — see the
        # bounded variant below for the seconds-scale version under the CI
        # gate.  The semi-naive incremental mode (docs/incremental.md) does
        # not rescue it either, so it stays slow-marked: this is a single
        # *cold* run whose cost is the pure derivation of genuinely new rows
        # round after round — every round's frontier is the whole previous
        # round's output, so "join only against the delta" is already what
        # the run amounts to, and there is no converged prior fix-point for
        # a warm delta-driven repeat to start from.
        schemas = item_schemas("a", "b")
        rules = [
            rule_from_text("ab", "b: item(X, Y) -> a: item(Y, Z)"),
            rule_from_text("ba", "a: item(X, Y) -> b: item(Y, Z)"),
        ]
        data = {"a": {"item": [("x0", "x1")]}}
        system = ScenarioSpec.of(schemas, rules, data).build_system()
        Session(system).run("update")
        assert all_nodes_closed(system)
        # Ground part matches the centralized chase with the same check.
        reference = centralized_update(schemas, rules, data).snapshot()
        assert ground_part(system.databases()) == ground_part(reference)

    def test_existential_cycle_statically_classified_non_terminating(self):
        # The fast guard for the pathological network above: the static
        # analyzer classifies it as not weakly acyclic (diagnostic T001) in
        # well under a second, so the >20-minute slow test is no longer the
        # only thing standing between that rule shape and a hung run.
        schemas = item_schemas("a", "b")
        rules = [
            rule_from_text("ab", "b: item(X, Y) -> a: item(Y, Z)"),
            rule_from_text("ba", "a: item(X, Y) -> b: item(Y, Z)"),
        ]
        started = time.perf_counter()
        assert not is_weakly_acyclic(rules)
        report = analyze_parts(schemas, rules, {"a": {"item": [("x0", "x1")]}})
        assert time.perf_counter() - started < 1.0
        assert [d.code for d in report.errors] == ["T001"]

    def test_existential_cycle_bounded_terminates(self):
        # The bounded-size cycle: both rules keep the key in the universal
        # (first) position, so the A6 projection check rejects re-derivations
        # after one round trip and the mutual-import chase closes in a
        # handful of messages instead of the pathological variant's hours.
        schemas = item_schemas("a", "b")
        rules = [
            rule_from_text("ab", "b: item(X, Y) -> a: item(X, Z)"),
            rule_from_text("ba", "a: item(X, Y) -> b: item(X, Z)"),
        ]
        # The analyzer agrees this variant is safe to chase: weakly acyclic,
        # no termination diagnostics — the static twin of the run below.
        assert is_weakly_acyclic(rules)
        assert analyze_parts(schemas, rules).ok
        data = {"a": {"item": [("x0", "x1"), ("y0", "y1")]}}
        system = ScenarioSpec.of(schemas, rules, data).build_system()
        Session(system).run("update")
        assert all_nodes_closed(system)
        b_rows = system.node("b").database.relation("item").rows()
        assert {row[0] for row in b_rows} == {"x0", "y0"}
        assert all(is_null(value) for _key, value in b_rows)
        reference = centralized_update(schemas, rules, data).snapshot()
        assert ground_part(system.databases()) == ground_part(reference)


class TestBuiltinsInRules:
    def test_inequality_filters_imported_tuples(self):
        schemas = item_schemas("a", "b")
        rules = [rule_from_text("r", "b: item(X, Y), X != Y -> a: item(X, Y)")]
        data = {"b": {"item": [("1", "1"), ("1", "2")]}}
        system = ScenarioSpec.of(schemas, rules, data).build_system()
        Session(system).run("update")
        assert system.node("a").database.relation("item").rows() == {("1", "2")}

    def test_ordering_builtin(self):
        schemas = {
            "a": DatabaseSchema([RelationSchema("recent", ["k", "y"])]),
            "b": DatabaseSchema([RelationSchema("pub", ["k", "y"])]),
        }
        rules = [rule_from_text("r", "b: pub(K, Y), Y >= 2000 -> a: recent(K, Y)")]
        data = {"b": {"pub": [("p1", 1998), ("p2", 2003)]}}
        system = ScenarioSpec.of(schemas, rules, data).build_system()
        Session(system).run("update")
        assert system.node("a").database.relation("recent").rows() == {("p2", 2003)}


class TestNodesWithoutRules:
    def test_isolated_node_closes_without_messages(self):
        schemas = item_schemas("a", "b", "lonely")
        rules = [rule_from_text("ab", "b: item(X, Y) -> a: item(X, Y)")]
        data = {"b": {"item": [("1", "2")]}, "lonely": {"item": [("9", "9")]}}
        system = ScenarioSpec.of(schemas, rules, data).build_system()
        Session(system).run("update")
        assert system.node("lonely").is_update_closed
        assert system.node("lonely").database.relation("item").rows() == {("9", "9")}

    def test_mediator_node_with_empty_database(self):
        # b holds no data of its own but relays from c to a (the paper's
        # "node acts as a mediator" case: LDB may be absent, DBS must exist).
        system = ScenarioSpec.of(
            item_schemas("a", "b", "c"),
            [
                rule_from_text("ab", "b: item(X, Y) -> a: item(X, Y)"),
                rule_from_text("bc", "c: item(X, Y) -> b: item(X, Y)"),
            ],
            {"c": {"item": [("1", "2")]}},
        ).build_system()
        Session(system).run("update")
        assert system.node("a").database.relation("item").rows() == {("1", "2")}
