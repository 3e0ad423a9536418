"""The fix-point oracle (``tests/fixpoint_oracle.py``) on closures worked by hand."""

from repro.coordination.rule import rule_from_text
from repro.database.nulls import is_null
from repro.database.parser import parse_query
from fixpoint_oracle import brute_force, chase, ground


def test_brute_force_answers_a_join_over_its_variables():
    facts = {"p": {(1, 2), (3, 2), (4, 4)}, "q": {(2, 5)}}
    query = parse_query("ans(X, Z) :- p(X, Y), q(Y, Z)")
    assert brute_force(facts, query) == {(1, 2, 5), (3, 2, 5)}
    assert brute_force(facts, query, delta={"p": {(3, 2)}}) == {(3, 2, 5)}


def test_the_chase_closes_a_copy_cycle():
    rules = [
        rule_from_text("ab", "a: p(X) -> b: p(X)"),
        rule_from_text("ba", "b: p(X) -> a: p(X)"),
    ]
    closure = chase(rules, {"a": {"p": [(1,)]}, "b": {"p": [(2,)]}})
    assert closure == {"a": {"p": {(1,), (2,)}}, "b": {"p": {(1,), (2,)}}}


def test_only_the_join_applies_a_comparison_across_peers():
    rules = [rule_from_text("m", "a: p(X, Y), b: q(Y, Z), X != Z -> c: r(X, Z)")]
    facts = {"a": {"p": [(1, 2), (3, 2)]}, "b": {"q": [(2, 1), (2, 3)]}}
    assert chase(rules, facts)["c"] == {"r": {(1, 3), (3, 1)}}


def test_one_null_per_frontier_binding_even_where_a_row_covers_it():
    rules = [
        rule_from_text("bc", "c: author(X) -> b: person(X, O)"),
        rule_from_text("ab", "b: person(X, O) -> a: person(X, O)"),
    ]
    facts = {"b": {"person": [("ada", "uni")]}, "c": {"author": [("ada",), ("bob",)]}}
    closure = chase(rules, facts)
    invented = [row for row in closure["b"]["person"] if is_null(row[1])]
    assert sorted(name for name, _org in invented) == ["ada", "bob"]
    assert len({org for _name, org in invented}) == 2
    assert closure["a"] == closure["b"]
    # The nulls are named by rule and binding, so chasing again adds nothing.
    assert chase(rules, closure) == closure
    assert ground(closure) == {
        "a": {"person": {("ada", "uni")}},
        "b": {"person": {("ada", "uni")}},
        "c": {"author": {("ada",), ("bob",)}},
    }
