"""Unit tests: maintained fragments, what makes them recompute, where caches live."""

import gc
import pickle
import weakref

import pytest

import repro.coordination.rule as rule_module
import repro.core.update as update_module
from repro.api import Session
from repro.coordination.rule import CoordinationRule, rule_from_text
from repro.core.node import PeerNode
from repro.core.update import fragment_for, join_fragments, maintain_fragment
from repro.database.database import LocalDatabase
from repro.database.parser import parse_query
from repro.database.query import Atom, Constant, Variable
from repro.database.relation import Relation
from repro.database.schema import DatabaseSchema, RelationSchema
from repro.network.transport import SyncTransport
from repro.workloads.scenarios import build_paper_example


@pytest.fixture
def calls(monkeypatch):
    """Which of the two pure fragment functions each lookup went through."""
    seen = []
    for name in ("fragment_for", "fragment_delta_for"):
        pure = getattr(update_module, name)

        def counting(*args, _name=name, _pure=pure):
            seen.append(_name)
            return _pure(*args)

        monkeypatch.setattr(update_module, name, counting)
    return seen


@pytest.fixture
def node():
    database = LocalDatabase(
        DatabaseSchema(
            [RelationSchema("r", ["x", "y"]), RelationSchema("s", ["x", "y"])]
        )
    )
    database.insert_many("r", [("1", "2"), ("2", "3")])
    database.insert_many("s", [("2", "9")])
    return PeerNode("b", database, SyncTransport())


JOIN = "b: r(X, Y), s(Y, Z) -> a: h(X, Z)"


class TestRelationChangeMarks:
    def test_newest_returns_the_rows_inserted_since(self):
        relation = Relation(RelationSchema("r", ["x"]), [("a",), ("b",)])
        seen = len(relation)
        relation.insert(("c",))
        relation.insert(("a",))  # already there: not an insertion
        relation.insert(("d",))
        assert set(relation.newest(len(relation) - seen)) == {("c",), ("d",)}
        assert list(relation.newest(0)) == []

    def test_only_deletes_and_clears_count_as_removals(self):
        relation = Relation(RelationSchema("r", ["x"]), [("a",)])
        relation.insert(("b",))
        assert relation.removals == 0
        relation.delete(("nope",))
        assert relation.removals == 0
        relation.delete(("a",))
        assert relation.removals == 1
        relation.clear()
        assert relation.removals == 2

    def test_iteration_follows_insertion_order(self):
        relation = Relation(RelationSchema("r", ["x"]))
        for value in "qwerty":
            relation.insert((value,))
        relation.delete(("e",))
        assert [row[0] for row in relation] == list("qwrty")


class TestEvaluateFragment:
    def test_unchanged_relations_return_the_same_object(self, node, calls):
        rule = rule_from_text("out", JOIN)
        first = maintain_fragment(node, rule).rows
        assert first == {("1", "2", "9")}
        assert maintain_fragment(node, rule).rows is first
        assert calls == ["fragment_for"]

    def test_growth_is_joined_semi_naively(self, node, calls):
        rule = rule_from_text("out", JOIN)
        maintain_fragment(node, rule)
        node.database.insert("s", ("3", "7"))
        node.database.insert("r", ("5", "2"))
        grown = maintain_fragment(node, rule).rows
        assert grown == {("1", "2", "9"), ("5", "2", "9"), ("2", "3", "7")}
        assert grown == fragment_for(node.database, rule, "b")
        assert calls == ["fragment_for", "fragment_delta_for"]

    def test_growth_that_adds_nothing_keeps_the_object(self, node, calls):
        rule = rule_from_text("out", JOIN)
        first = maintain_fragment(node, rule).rows
        node.database.insert("s", ("unjoined", "0"))
        assert maintain_fragment(node, rule).rows is first
        assert calls == ["fragment_for", "fragment_delta_for"]

    def test_delete_recomputes(self, node, calls):
        rule = rule_from_text("out", JOIN)
        maintain_fragment(node, rule)
        node.database.delete("s", ("2", "9"))
        assert maintain_fragment(node, rule).rows == frozenset()
        assert calls == ["fragment_for", "fragment_for"]

    def test_clear_recomputes_even_when_refilled_to_the_same_size(self, node, calls):
        rule = rule_from_text("out", JOIN)
        maintain_fragment(node, rule)
        relation = node.database.relation("s")
        relation.clear()
        relation.insert(("3", "4"))
        assert maintain_fragment(node, rule).rows == {("2", "3", "4")}
        assert calls == ["fragment_for", "fragment_for"]

    def test_add_relation_recomputes(self, node, calls):
        rule = rule_from_text("out", "b: r(X, Y), late(Y, Z) -> a: h(X, Z)")
        assert maintain_fragment(node, rule).rows == frozenset()
        assert maintain_fragment(node, rule).rows == frozenset()
        assert calls == ["fragment_for"]
        node.database.add_relation(RelationSchema("late", ["x", "y"]))
        node.database.insert("late", ("3", "0"))
        assert maintain_fragment(node, rule).rows == {("2", "3", "0")}
        assert calls == ["fragment_for", "fragment_for"]

    def test_rule_reinstalled_with_another_body_recomputes(self, node, calls):
        rule = rule_from_text("out", JOIN)
        maintain_fragment(node, rule)
        plan = rule.body_query_for("b").derived["plan"]
        replaced = rule_from_text("out", "b: r(X, Y) -> a: h(X, Y)")
        assert maintain_fragment(node, replaced).rows == {("1", "2"), ("2", "3")}
        assert calls == ["fragment_for", "fragment_for"]
        assert replaced.body_query_for("b").derived["plan"] is not plan

    def test_rules_with_one_body_share_one_fragment(self, node, calls):
        # One body exported twice, to different heads at different peers.
        first = rule_from_text("to_a", JOIN)
        second = rule_from_text("to_c", "b: r(X, Y), s(Y, Z) -> c: g(Z, X)")
        other = rule_from_text("other", "b: r(X, Y) -> a: h(X, Y)")
        for rule in (first, second, other):
            node.add_outgoing_rule(rule)
        rows = maintain_fragment(node, first).rows
        assert maintain_fragment(node, second).rows is rows
        assert calls == ["fragment_for"]
        node.database.insert("r", ("5", "2"))
        grown = maintain_fragment(node, second).rows
        assert maintain_fragment(node, first).rows is grown
        assert calls == ["fragment_for", "fragment_delta_for"]
        maintain_fragment(node, other)
        assert len(node.state.fragment_cache) == 2

        node.remove_outgoing_rule("to_a")
        assert maintain_fragment(node, second).rows is grown
        assert len(node.state.fragment_cache) == 2
        node.remove_outgoing_rule("to_c")
        assert len(node.state.fragment_cache) == 1
        node.remove_outgoing_rule("other")
        assert node.state.fragment_cache == {}


class TestCachesOnFrozenDataclasses:
    def warmed_rule(self):
        rule = rule_from_text(
            "r", "b: item(X, Y), c: item(Y, Z), X != Z -> a: item(X, Z)"
        )
        # Touch everything that memoises: derived tuples, per-source queries,
        # the evaluator's plan (on the body query) and the join plan (lambdas).
        rule.query, rule.sources, rule.distinguished_variables
        database = LocalDatabase(DatabaseSchema([RelationSchema("item", ["x", "y"])]))
        database.insert("item", ("1", "2"))
        fragment_for(database, rule, "b")
        join_fragments(rule, {"b": {("1", "k")}, "c": {("k", "9")}})
        assert rule.derived and rule.body_query_for("b").derived
        return rule

    def test_caches_stay_out_of_eq_hash_and_repr(self):
        warm = self.warmed_rule()
        cold = rule_from_text(
            "r", "b: item(X, Y), c: item(Y, Z), X != Z -> a: item(X, Z)"
        )
        assert warm == cold and hash(warm) == hash(cold)
        assert repr(warm) == repr(cold)
        query = parse_query("q(X) :- edge(X, Y)")
        untouched = repr(query), hash(query)
        query.body_variables, query.derived.setdefault("anything", object())
        assert (repr(query), hash(query)) == untouched
        assert query == parse_query("q(X) :- edge(X, Y)")

    def test_pickles_carry_the_fields_only(self):
        warm = self.warmed_rule()
        clone = pickle.loads(pickle.dumps(warm))
        assert clone == warm
        assert set(vars(clone)) == {"rule_id", "target", "head", "body", "comparisons"}
        # ... and the clone rebuilds what it needs; in one process it interns
        # to the very same body queries and join shape.
        assert clone.sources == ("b", "c")
        assert join_fragments(clone, {"b": {("1", "k")}, "c": {("k", "9")}}) == {
            ("1", "9")
        }
        assert clone.body_query_for("b") is warm.body_query_for("b")
        assert clone.derived["join"] is warm.derived["join"]
        query = warm.body_query_for("b")
        assert set(vars(pickle.loads(pickle.dumps(query)))) == {
            "head",
            "body",
            "comparisons",
        }

    def test_per_source_queries_are_built_once(self):
        rule = self.warmed_rule()
        assert rule.body_query_for("b") is rule.body_query_for("b")
        assert rule.query is rule.query


class TestOneCompilationPerShape:
    def test_equal_bodies_at_different_peers_share_one_plan(self, node):
        first = rule_from_text("to_a", "b: r(X, Y), s(Y, Z) -> a: h(X, Z)")
        second = rule_from_text("to_c", "d: r(X, Y), s(Y, Z) -> c: g(Z)")
        other = rule_from_text("to_e", "b: r(X, Y), s(Y, W) -> e: h(X, W)")
        query = first.body_query_for("b")
        assert second.body_query_for("d") is query
        assert other.body_query_for("b") is not query
        elsewhere = node.database.copy()
        elsewhere.insert("s", ("3", "4"))
        assert fragment_for(node.database, first, "b") == {("1", "2", "9")}
        plan = query.derived["plan"]
        assert fragment_for(elsewhere, second, "d") == {
            ("1", "2", "9"),
            ("2", "3", "4"),
        }
        assert second.body_query_for("d").derived["plan"] is plan
        # ... and one fragment key, its repr built once.
        assert update_module.fragment_body(first, "b") is update_module.fragment_body(
            second, "d"
        )

    def test_one_join_shape_maps_positions_to_each_rules_nodes(self):
        first = rule_from_text("r1", "b: p(X, Y), c: q(Y, Z) -> a: h(X, Z)")
        second = rule_from_text("r2", "d: p(X, Y), e: q(Y, Z) -> f: g(X, Z)")
        left, right = {("1", "k"), ("2", "j")}, {("k", "9")}
        assert join_fragments(first, {"b": left, "c": right}) == {("1", "9")}
        assert join_fragments(
            second, {"d": left, "e": right}, delta_source="e", delta_rows=right
        ) == {("1", "9")}
        assert first.derived["join"] is second.derived["join"]

    def test_dropping_every_rule_frees_the_interned_query(self):
        text = "b: late(X, Y), late(Y, X) -> a: h(X)"
        gc.collect()
        gc.disable()
        try:
            rules = [rule_from_text("one", text), rule_from_text("two", text)]
            query = rules[0].body_query_for("b")
            assert rules[1].body_query_for("b") is query
            join_fragments(rules[0], {"b": {("1", "1")}})
            update_module.fragment_body(rules[1], "b")
            entries = len(rule_module._BODY_QUERIES), len(update_module._JOIN_SHAPES)
            alive = weakref.ref(query), weakref.ref(rules[0].derived["join"])
            del query, rules
            assert [ref() for ref in alive] == [None, None]
            assert len(rule_module._BODY_QUERIES) == entries[0] - 1
            assert len(update_module._JOIN_SHAPES) == entries[1] - 1
        finally:
            gc.enable()

    def test_constants_are_told_apart_by_type(self):
        x = Variable("X")

        def rule(rule_id, value):
            body = [("b", Atom("r", [x, Constant(value)]))]
            return CoordinationRule(rule_id, "a", Atom("h", [x]), body)

        one, true = rule("one", 1), rule("true", True)
        assert one.body_query_for("b") == true.body_query_for("b")
        assert one.body_query_for("b") is not true.body_query_for("b")
        assert rule("again", 1).body_query_for("b") is one.body_query_for("b")

    def test_heads_emit_their_own_constants(self):
        database = LocalDatabase(DatabaseSchema([RelationSchema("r", ["x", "y"])]))
        x = Variable("X")
        by_one = Atom("r", [x, Constant(1)])
        by_true = Atom("r", [x, Constant(True)])
        assert by_one == by_true
        assert database.apply_view_tuples("one", by_one, (x,), [("a",)]) == {("a", 1)}
        assert database.apply_view_tuples("true", by_true, (x,), [("b",)]) == {
            ("b", True)
        }
        # The same rule id presented with the other (equal) head.
        database.apply_view_tuples("one", by_true, (x,), [("c",)])
        rows = {repr(row) for row in database.relation("r")}
        assert rows == {"('a', 1)", "('b', True)", "('c', True)"}


class TestSessionLifetime:
    def test_dropping_a_session_frees_it_without_the_collector(self):
        gc.collect()
        gc.disable()
        try:
            session = Session(build_paper_example())
            session.run("discovery")
            session.run("update")
            database = weakref.ref(session.system.node("A").database)
            node = weakref.ref(session.system.node("A"))
            session.close()
            del session
            assert database() is None and node() is None
        finally:
            gc.enable()
