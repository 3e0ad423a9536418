"""Unit tests for per-run change sets and the shared structural digest.

Covers the three pieces of :mod:`repro.coordination.changeset`: the
:class:`ChangeSet` eligibility rules for the delta-driven update path, the
worker-side :class:`ChangeAccumulator` that folds shipped sync deltas between
runs, and the :class:`StructuralDigest` behind the ``Session.update``
strategy-memo cache — next to the warm pools'
:class:`~repro.sharding.pool.WorldMirror`, which tracks the same state by
marks instead of a digest.
"""

from repro.api import ScenarioSpec, Session
from repro.coordination.changeset import (
    ChangeAccumulator,
    ChangeSet,
    rules_fingerprint,
    structural_digest,
)
from repro.coordination.rule import rule_from_text
from repro.sharding.pool import SyncDelta, WorldMirror
from repro.workloads.scenarios import (
    paper_example_data,
    paper_example_rules,
    paper_example_schemas,
)


def _paper_session() -> Session:
    return Session.from_spec(
        ScenarioSpec.of(
            paper_example_schemas(),
            paper_example_rules(),
            paper_example_data(),
            super_peer="A",
        )
    )


class TestChangeSet:
    def test_empty_change_set(self):
        changes = ChangeSet()
        assert changes.empty
        assert changes.incremental_ok  # a no-op incremental run is legitimate
        assert changes.inserted_rows == 0

    def test_pure_inserts_are_incremental_ok(self):
        changes = ChangeSet(inserts={"A": {"item": (("x", "y"),)}})
        assert not changes.empty
        assert changes.incremental_ok
        assert changes.inserted_rows == 1

    def test_removals_disqualify(self):
        assert not ChangeSet(removals=True).incremental_ok

    def test_rule_changes_disqualify(self):
        assert not ChangeSet(rule_changes=True).incremental_ok

    def test_from_sync_delta(self):
        rule = rule_from_text("r1", "B: item(X, Y) -> A: item(X, Y)")
        delta = SyncDelta(
            add_rules=(rule,),
            inserts={"B": {"item": (("1", "2"),)}},
        )
        changes = ChangeSet.from_sync_delta(delta)
        assert changes.inserts == {"B": {"item": (("1", "2"),)}}
        assert changes.rule_changes
        assert not changes.removals
        assert not changes.incremental_ok

    def test_from_sync_delta_replaces_read_as_removals(self):
        delta = SyncDelta(replaces={"A": {"item": (object(), (("1", "2"),))}})
        changes = ChangeSet.from_sync_delta(delta)
        assert changes.removals
        assert not changes.incremental_ok


class TestChangeAccumulator:
    def test_folds_inserts_across_payloads(self):
        accumulator = ChangeAccumulator()
        accumulator.note_sync_payload(
            {"inserts": {"A": {"item": [("1", "2")]}}}
        )
        accumulator.note_sync_payload(
            {"inserts": {"A": {"item": [("3", "4")]}, "B": {"tag": [("t",)]}}}
        )
        changes = accumulator.take()
        assert changes.inserts["A"]["item"] == (("1", "2"), ("3", "4"))
        assert changes.inserts["B"]["tag"] == (("t",),)
        assert changes.incremental_ok

    def test_take_resets(self):
        accumulator = ChangeAccumulator()
        accumulator.note_sync_payload({"inserts": {"A": {"item": [("1",)]}}})
        assert not accumulator.take().empty
        assert accumulator.take().empty

    def test_rule_and_replace_flags_stick_until_taken(self):
        accumulator = ChangeAccumulator()
        accumulator.note_sync_payload({"remove_rules": ("r1",)})
        accumulator.note_sync_payload({"inserts": {"A": {"item": [("1",)]}}})
        changes = accumulator.take()
        assert changes.rule_changes
        assert not changes.incremental_ok
        # After take(), a clean insert-only delta is eligible again.
        accumulator.note_sync_payload({"inserts": {"A": {"item": [("2",)]}}})
        assert accumulator.take().incremental_ok

    def test_replaces_flag(self):
        accumulator = ChangeAccumulator()
        accumulator.note_sync_payload({"replaces": {"A": {"item": (None, ())}}})
        assert accumulator.take().removals


class TestStructuralDigest:
    def test_digest_is_hashable_and_order_insensitive(self):
        digest_a = structural_digest(
            {"r1": "text"}, {"A": {"item": frozenset({("1",)})}}
        )
        digest_b = structural_digest(
            {"r1": "text"}, {"A": {"item": frozenset({("1",)})}}
        )
        assert digest_a == digest_b
        assert hash(digest_a) == hash(digest_b)

    def test_insertion_changes_the_digest(self):
        session = _paper_session()
        before = session.system.structural_digest()
        node = sorted(session.system.nodes)[0]
        relation = sorted(session.system.node(node).database.facts())[0]
        arity = len(
            next(
                schema
                for schema in session.system.node(node).database.schema
                if schema.name == relation
            ).attributes
        )
        session.system.node(node).database.relation(relation).insert(
            tuple(f"fresh{i}" for i in range(arity))
        )
        assert session.system.structural_digest() != before

    def test_add_and_delete_link_change_the_digest(self):
        session = _paper_session()
        before = session.system.structural_digest()
        extra = rule_from_text("extra-link", "E: e(X, Y) -> B: b(Y, X)")
        session.system.add_rule(extra)
        with_rule = session.system.structural_digest()
        assert with_rule != before
        session.system.remove_rule("extra-link")
        assert session.system.structural_digest() == before

    def test_session_fingerprint_is_the_shared_digest(self):
        # The memo cache of Session.update and the pool mirror must key off
        # the *same* digest definition — this is the fingerprint unification.
        session = _paper_session()
        assert session._state_fingerprint() == session.system.structural_digest()

    def test_world_mirror_follows_the_live_system_without_a_copy_of_it(self):
        # The mirror keeps marks on the live relations, not their rows: what
        # it ships after a mutation is exactly what moved the digest, and
        # once shipped the mirror is level with the system again.
        session = _paper_session()
        system = session.system
        mirror = WorldMirror(system)
        assert mirror.rules == rules_fingerprint(system.registry)
        assert mirror.advance(system).empty
        before = system.structural_digest()
        node = sorted(system.nodes)[0]
        relation = next(system.node(node).database.relations())
        row = tuple(f"new{i}" for i in range(relation.schema.arity))
        relation.insert(row)
        assert system.structural_digest() != before
        delta = mirror.advance(system)
        assert delta.inserts == {node: {relation.name: (row,)}}
        assert not delta.replaces and not delta.add_rules
        assert mirror.advance(system).empty

    def test_rules_fingerprint_reads_edits_as_remove_plus_add(self):
        rule_a = rule_from_text("r1", "B: item(X, Y) -> A: item(X, Y)")
        rule_b = rule_from_text("r1", "B: item(X, Y) -> A: item(Y, X)")
        assert rules_fingerprint([rule_a]) != rules_fingerprint([rule_b])
