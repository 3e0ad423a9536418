"""Unit tests for the one change record and the rules fingerprint.

Covers the two pieces of :mod:`repro.coordination.changeset`: the
:class:`Change` record — its eligibility rule for the delta-driven update
path, the set-wise fold a worker keeps of its pending syncs, the check that
runs before every apply, the canonical apply order and the served document
form — and :func:`rules_fingerprint`, which the warm pools'
:class:`~repro.sharding.pool.WorldMirror` keeps next to marks on the live
relations.  "Unchanged" is checked against ``snapshot_of(system)``, the
rules fingerprint plus every node's facts.
"""

import pytest

from repro.api import ScenarioSpec, Session
from repro.coordination.changeset import Change, rules_fingerprint
from repro.coordination.rule import rule_from_text
from repro.database.schema import RelationSchema
from repro.errors import ChangeError
from repro.sharding.pool import WorldMirror
from repro.workloads.scenarios import (
    paper_example_data,
    paper_example_rules,
    paper_example_schemas,
)
from sync_oracle import snapshot_of

#: Closes an existential cycle with the paper example's r1 (E.e -> B.b).
T001_RULE = "x1: B: b(X, Y) -> E: e(Y, Z)"


def _paper_session() -> Session:
    return Session.from_spec(
        ScenarioSpec.of(
            paper_example_schemas(),
            paper_example_rules(),
            paper_example_data(),
            super_peer="A",
        )
    )


class TestChange:
    def test_empty_change(self):
        changes = Change()
        assert changes.empty
        assert changes.insert_only  # a no-op incremental run is legitimate
        assert changes.inserted_rows == 0

    def test_pure_inserts_are_insert_only(self):
        changes = Change(inserts={"A": {"item": (("x", "y"),)}})
        assert not changes.empty
        assert changes.insert_only
        assert changes.inserted_rows == 1

    @pytest.mark.parametrize(
        "fields",
        [
            {"removes": {"A": {"item": (("x", "y"),)}}},
            {"replaces": {"A": {"item": ()}}},
            {"relations": {"A": (RelationSchema("extra", ["k"]),)}},
            {"remove_rules": ("r1",)},
            {"add_rules": (rule_from_text("r1", "B: b(X, Y) -> A: a(X, Y)"),)},
        ],
    )
    def test_anything_but_inserts_disqualifies(self, fields):
        changes = Change(**fields)
        assert not changes.empty
        assert not changes.insert_only
        # Removed rows still only move rows: the delta path takes them.
        assert changes.rows_only == ("removes" in fields)

    def test_only_keeps_rules_and_the_named_nodes_rows(self):
        rule = rule_from_text("r9", "B: b(X, Y) -> A: a(X, Y)")
        changes = Change(
            inserts={"A": {"a": (("1", "2"),)}, "B": {"b": (("3", "4"),)}},
            replaces={"B": {"b": ()}},
            add_rules=(rule,),
        )
        sliced = changes.only(("A",))
        assert sliced.inserts == {"A": {"a": (("1", "2"),)}}
        assert not sliced.replaces
        assert sliced.add_rules == (rule,)


class TestPendingFold:
    """A worker folds its syncs with ``union``; only the moved rows and
    eligibility are read from the fold."""

    def test_folds_inserts_across_syncs(self):
        pending = Change()
        pending = pending.union(Change(inserts={"A": {"item": (("3", "4"),)}}))
        pending = pending.union(
            Change(inserts={"A": {"item": (("1", "2"),)}, "B": {"tag": (("t",),)}})
        )
        assert pending.inserts["A"]["item"] == (("1", "2"), ("3", "4"))
        assert pending.inserts["B"]["tag"] == (("t",),)
        assert pending.insert_only

    def test_rule_and_replace_changes_stick_in_the_fold(self):
        pending = Change(remove_rules=("r1",)).union(
            Change(inserts={"A": {"item": (("1",),)}})
        )
        assert not pending.insert_only and not pending.rows_only
        assert not Change().union(Change(replaces={"A": {"item": ()}})).rows_only

    def test_a_removal_folded_with_inserts_keeps_both_and_rows_only(self):
        pending = Change(removes={"A": {"item": (("1",),)}}).union(
            Change(inserts={"B": {"item": (("2",),)}})
        )
        assert pending.removes == {"A": {"item": (("1",),)}}
        assert pending.inserts == {"B": {"item": (("2",),)}}
        assert pending.rows_only and not pending.insert_only

    def test_union_is_set_wise_on_removes_and_rules_too(self):
        rule = rule_from_text("r9", "B: b(X, Y) -> A: a(X, Y)")
        left = Change(removes={"A": {"a": (("2",), ("1",))}}, add_rules=(rule,))
        right = Change(removes={"A": {"a": (("1",),)}}, remove_rules=("r2", "r1"))
        merged = left.union(right)
        assert merged.removes == {"A": {"a": (("1",), ("2",))}}
        assert merged.add_rules == (rule,)
        assert merged.remove_rules == ("r1", "r2")
        assert merged == right.union(left) == merged.union(merged)


class TestCheckAndApply:
    def test_a_rejected_change_mutates_nothing(self):
        system = _paper_session().system
        before = snapshot_of(system)
        bad = Change(
            inserts={"E": {"e": (("s9", "t9"),)}}, remove_rules=("no-such-rule",)
        )
        with pytest.raises(ChangeError, match="unknown rule id"):
            bad.apply(system)
        assert snapshot_of(system) == before

    @pytest.mark.parametrize(
        "changes, message",
        [
            (Change(inserts={"GHOST": {"e": (("a", "b"),)}}), "unknown node"),
            (Change(inserts={"E": {"nope": (("a", "b"),)}}), "unknown relation"),
            (Change(inserts={"E": {"e": (("a",),)}}), "arity"),
            (Change(removes={"E": {"e": (("a", "b", "c"),)}}), "arity"),
            (
                Change(
                    inserts={"E": {"e": (("a", "b"),)}},
                    removes={"E": {"e": (("a", "b"),)}},
                ),
                "both inserted and removed",
            ),
            (Change(remove_rules=("r1", "r1")), "unknown rule id"),
            (
                Change(add_rules=(rule_from_text("r1", "E: e(X, Y) -> A: a(X, Y)"),)),
                "already registered",
            ),
            (
                Change(add_rules=(rule_from_text("r9", "E: e(X, Y) -> Q: a(X, Y)"),)),
                "unknown node",
            ),
        ],
    )
    def test_check_rejects_before_any_mutation(self, changes, message):
        system = _paper_session().system
        before = snapshot_of(system)
        with pytest.raises(ChangeError, match=message):
            changes.apply(system)
        assert snapshot_of(system) == before

    def test_rules_go_out_before_they_come_in(self):
        system = _paper_session().system
        edited = rule_from_text("r1", "E: e(X, Y) -> B: b(Y, X)")
        Change(remove_rules=("r1",), add_rules=(edited,)).apply(system)
        assert system.registry.get("r1").text == edited.text

    def test_a_rule_breaking_weak_acyclicity_is_rejected_as_t001(self):
        system = _paper_session().system
        before = snapshot_of(system)
        changes = Change.from_json({"add_rules": [T001_RULE]})
        with pytest.raises(ChangeError, match="T001"):
            changes.check(system)
        with pytest.raises(ChangeError, match="T001"):
            changes.apply(system)
        assert snapshot_of(system) == before
        # Dropping r1 in the same change keeps the set weakly acyclic.
        Change.from_json({"add_rules": [T001_RULE], "remove_rules": ["r1"]}).check(
            system
        )

    def test_a_replace_inserts_then_deletes_the_rest(self):
        system = _paper_session().system
        relation = system.node("E").database.relation("e")
        mark = relation.mark()
        grown = (*relation, ("u", "v"))
        assert Change(replaces={"E": {"e": grown}}).apply(system) == 1
        assert relation.since(mark) == ((("u", "v"),), ())  # only grew
        assert Change(replaces={"E": {"e": (("u", "v"),)}}).apply(system) == 2
        assert relation.rows() == {("u", "v")}
        inserted, removed = relation.since(mark)
        assert inserted == (("u", "v"),) and set(removed) == set(grown[:-1])

    def test_new_relations_are_created_before_their_rows(self):
        system = _paper_session().system
        schema = RelationSchema("extra", ["k"])
        Change(relations={"E": (schema,)}, replaces={"E": {"extra": (("v",),)}}).apply(
            system
        )
        assert system.node("E").database.relation("extra").rows() == {("v",)}
        # Creating a relation the receiver already has is a no-op.
        Change(relations={"E": (schema,)}).apply(system)


class TestDocument:
    def test_round_trips_through_json(self):
        changes = Change(
            inserts={"E": {"e": (("x", "y"),)}},
            removes={"B": {"b": (("m", "n"),)}},
            add_rules=(rule_from_text("r9", "E: e(X, Y) -> B: b(X, Y)"),),
            remove_rules=("r1",),
        )
        assert Change.from_json(changes.to_json()) == changes

    def test_internal_fields_have_no_document_form(self):
        with pytest.raises(ChangeError, match="no document form"):
            Change(replaces={"E": {"e": ()}}).to_json()


class TestWorldMirror:
    def test_world_mirror_follows_the_live_system_without_a_copy_of_it(self):
        # The mirror keeps marks on the live relations, not their rows: what
        # it ships after a mutation is exactly what moved the snapshot, and
        # once shipped the mirror is level with the system again.
        session = _paper_session()
        system = session.system
        mirror = WorldMirror(system)
        assert mirror.rules == rules_fingerprint(system.registry)
        assert mirror.advance(system).empty
        before = snapshot_of(system)
        node = sorted(system.nodes)[0]
        relation = next(system.node(node).database.relations())
        row = tuple(f"new{i}" for i in range(relation.schema.arity))
        relation.insert(row)
        assert snapshot_of(system) != before
        delta = mirror.advance(system)
        assert delta.inserts == {node: {relation.name: (row,)}}
        assert delta.insert_only
        assert mirror.advance(system).empty

    def test_rules_fingerprint_reads_edits_as_remove_plus_add(self):
        rule_a = rule_from_text("r1", "B: item(X, Y) -> A: item(X, Y)")
        rule_b = rule_from_text("r1", "B: item(X, Y) -> A: item(Y, X)")
        assert rules_fingerprint([rule_a]) != rules_fingerprint([rule_b])


class TestRulesFingerprint:
    def test_rules_fingerprint_is_order_insensitive(self):
        rule_a = rule_from_text("r1", "B: item(X, Y) -> A: item(X, Y)")
        rule_b = rule_from_text("r2", "C: item(X, Y) -> A: item(X, Y)")
        assert rules_fingerprint([rule_a, rule_b]) == rules_fingerprint(
            [rule_b, rule_a]
        )

    def test_add_and_delete_link_change_the_rules_fingerprint(self):
        system = _paper_session().system
        before = rules_fingerprint(system.registry)
        system.add_rule(rule_from_text("extra-link", "E: e(X, Y) -> B: b(Y, X)"))
        assert rules_fingerprint(system.registry) != before
        system.remove_rule("extra-link")
        assert rules_fingerprint(system.registry) == before

    def test_an_insertion_leaves_the_rules_fingerprint_alone(self):
        system = _paper_session().system
        before = snapshot_of(system)
        system.node("E").database.relation("e").insert(("x9", "y9"))
        after = snapshot_of(system)
        assert after[0] == before[0] == rules_fingerprint(system.registry)
        assert after[1] != before[1]
