"""Integration tests for dynamic network changes (Section 4, Theorems 2-3)."""

import pytest

from repro.api import ScenarioSpec, Session
from repro.coordination.rule import rule_from_text
from repro.core.dynamics import (
    AddLink,
    DeleteLink,
    NetworkChange,
    apply_change_interleaved,
    apply_change_operation,
    complete_envelope,
    is_complete_answer,
    is_separated_under_change,
    is_sound_answer,
    sound_envelope,
)
from repro.core.superpeer import SuperPeer
from repro.database.schema import DatabaseSchema, RelationSchema
from repro.errors import ChangeError
from repro.experiments.dynamic_changes import run_dynamic_changes
from repro.experiments.separation import run_separation


def item_schemas(*names):
    return {
        name: DatabaseSchema([RelationSchema("item", ["x", "y"])]) for name in names
    }


def chain_setup():
    schemas = item_schemas("a", "b", "c")
    rules = [
        rule_from_text("ab", "b: item(X, Y) -> a: item(X, Y)"),
        rule_from_text("bc", "c: item(X, Y) -> b: item(X, Y)"),
    ]
    data = {"b": {"item": [("b1", "b2")]}, "c": {"item": [("c1", "c2")]}}
    return schemas, rules, data


class TestNetworkChangeObject:
    def test_building_and_lengths(self):
        change = NetworkChange()
        change.add_link(rule_from_text("x", "b: item(X, Y) -> a: item(X, Y)"))
        change.delete_link("a", "b", "ab")
        assert len(change) == 2
        assert len(change.added_rules) == 1
        assert change.deleted_rule_ids == ["ab"]

    def test_initial_subchange(self):
        change = NetworkChange()
        change.delete_link("a", "b", "r1").delete_link("a", "b", "r2")
        assert len(change.initial_subchange(1)) == 1
        with pytest.raises(ChangeError):
            change.initial_subchange(5)

    def test_subchange_for_nodes(self):
        change = NetworkChange()
        change.delete_link("a", "b", "r1").delete_link("x", "y", "r2")
        relevant = change.subchange_for(["a"])
        assert len(relevant) == 1
        assert relevant.deleted_rule_ids == ["r1"]

    def test_involved_nodes(self):
        add = AddLink(rule_from_text("x", "b: item(X, Y) -> a: item(X, Y)"))
        assert add.involved_nodes == frozenset({"a", "b"})
        delete = DeleteLink("a", "b", "r")
        assert delete.involved_nodes == frozenset({"a", "b"})


class TestApplyingChanges:
    def test_add_link_during_quiescence_triggers_import(self):
        schemas, rules, data = chain_setup()
        system = ScenarioSpec.of(schemas, rules, data).build_system()
        Session(system).run("update")
        # New rule: a also imports directly from c.
        new_rule = rule_from_text("ac", "c: item(X, Y) -> a: item(Y, X)")
        apply_change_operation(system, AddLink(new_rule))
        system.transport.run()
        assert ("c2", "c1") in system.node("a").database.relation("item").rows()

    def test_delete_link_keeps_already_imported_data(self):
        schemas, rules, data = chain_setup()
        system = ScenarioSpec.of(schemas, rules, data).build_system()
        Session(system).run("update")
        apply_change_operation(system, DeleteLink("a", "b", "ab"))
        system.transport.run()
        # Data imported through the deleted rule stays (Definition 9 allows it).
        assert ("b1", "b2") in system.node("a").database.relation("item").rows()
        assert "ab" not in system.registry

    def test_rule_id_reused_with_another_body(self):
        """Removing a rule drops what was stored for it at both ends: the
        fragments received, the push ledger and the fired mark.  Rows of the
        old body's shape used to be merged into the new rule's fragment and
        crash its join (``IndexError: tuple index out of range``)."""
        schemas = item_schemas("a", "b")
        rules = [rule_from_text("ab", "b: item(X, Y) -> a: item(X, Y)")]
        data = {"b": {"item": [("1", "2"), ("2", "3")]}}
        system = ScenarioSpec.of(schemas, rules, data).build_system()
        super_peer = SuperPeer(system)
        super_peer.run_global_update()
        system.remove_rule("ab")
        head, source = system.node("a").state, system.node("b").state
        assert not head.fragments and not head.fired
        assert not source.pushed_fragments and not source.fragment_cache
        system.add_rule(
            rule_from_text("ab", "b: item(Z, X), item(X, Y) -> a: item(Y, Z)")
        )
        super_peer.run_global_update()
        assert system.node("a").database.relation("item").rows() == {
            ("1", "2"),
            ("2", "3"),
            ("3", "1"),
        }

    def test_delete_mismatching_link_rejected(self):
        schemas, rules, data = chain_setup()
        system = ScenarioSpec.of(schemas, rules, data).build_system()
        with pytest.raises(ChangeError):
            apply_change_operation(system, DeleteLink("a", "c", "ab"))

    def test_interleaved_change_is_sound_and_complete(self):
        schemas, rules, data = chain_setup()
        system = ScenarioSpec.of(schemas, rules, data).build_system()
        change = (
            NetworkChange()
            .add_link(rule_from_text("ac", "c: item(X, Y) -> a: item(X, Y)"))
            .delete_link("b", "c", "bc")
        )
        for node_id in sorted(system.nodes):
            system.node(node_id).update.start()
        apply_change_interleaved(system, change, steps_between=2)

        measured = system.databases()
        upper = sound_envelope(schemas, rules, change, data)
        lower = complete_envelope(schemas, rules, change, data)
        assert is_sound_answer(measured, upper)
        assert is_complete_answer(measured, lower)
        assert system.transport.pending == 0

    def test_envelopes_are_ordered(self):
        schemas, rules, data = chain_setup()
        change = (
            NetworkChange()
            .add_link(rule_from_text("ac", "c: item(X, Y) -> a: item(X, Y)"))
            .delete_link("b", "c", "bc")
        )
        upper = sound_envelope(schemas, rules, change, data)
        lower = complete_envelope(schemas, rules, change, data)
        # The complete envelope is always contained in the sound envelope.
        assert is_sound_answer(lower, upper)


class TestSeparationUnderChange:
    def test_static_separation_helper(self):
        schemas, rules, data = chain_setup()
        change = NetworkChange().delete_link("a", "b", "ab")
        assert is_separated_under_change(["c"], ["a"], rules, change)
        assert not is_separated_under_change(["a"], ["c"], rules, change)

    def test_adding_a_link_can_break_separation(self):
        rules = [rule_from_text("ab", "b: item(X, Y) -> a: item(X, Y)")]
        change = NetworkChange().add_link(
            rule_from_text("bz", "z: item(X, Y) -> b: item(X, Y)")
        )
        assert not is_separated_under_change(["a"], ["z"], rules, change)
        assert is_separated_under_change(["z"], ["a"], rules, change)


class TestExperimentLevelTheorems:
    @pytest.mark.parametrize(
        "churn",
        [{}, {"deletions": 4, "steps_between": 3}],
        ids=["default", "longer-change-tighter-interleaving"],
    )
    def test_theorem2_experiment(self, churn):
        result = run_dynamic_changes(records_per_node=8, depth=2, **churn)
        assert result.theorem2_holds

    def test_theorem3_experiment(self):
        result = run_separation(records_per_node=6, clique_size=3, churn_rounds=4)
        assert result.theorem3_holds
        assert all(
            [result.separated, result.a_terminated, result.a_matches_isolated_run]
        )

    def test_churn_in_b_does_not_change_the_work_inside_a(self):
        light, heavy = (
            run_separation(records_per_node=6, clique_size=3, churn_rounds=rounds)
            for rounds in (2, 8)
        )
        assert light.messages_within_a == heavy.messages_within_a
