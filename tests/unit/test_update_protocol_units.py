"""Unit tests for the update protocol internals: rounds, pushes, fragments."""

from repro.api import ScenarioSpec, Session
from repro.coordination.rule import rule_from_text
from repro.core.state import UpdateState
from repro.core.update import (
    fragment_for,
    fragment_variables,
    join_fragments,
    maintain_fragment,
)
from repro.database.database import LocalDatabase
from repro.database.query import Variable
from repro.database.schema import DatabaseSchema, RelationSchema
from repro.network.message import Message, MessageType


def item_schemas(*names):
    return {
        name: DatabaseSchema([RelationSchema("item", ["x", "y"])]) for name in names
    }


def chain_system(data=None):
    rules = [
        rule_from_text("ab", "b: item(X, Y) -> a: item(X, Y)"),
        rule_from_text("bc", "c: item(X, Y) -> b: item(X, Y)"),
    ]
    return ScenarioSpec.of(
        item_schemas("a", "b", "c"),
        rules,
        data or {"c": {"item": [("1", "2")]}},
    ).build_system()


class TestFragments:
    def test_fragment_variables_order(self):
        rule = rule_from_text("r", "b: item(X, Y), item(Y, Z) -> a: item(X, Z)")
        assert fragment_variables(rule, "b") == (
            Variable("X"),
            Variable("Y"),
            Variable("Z"),
        )

    def test_fragment_for_database(self):
        db = LocalDatabase(DatabaseSchema([RelationSchema("item", ["x", "y"])]))
        db.insert_many("item", [("1", "2"), ("2", "3")])
        rule = rule_from_text("r", "b: item(X, Y), item(Y, Z) -> a: item(X, Z)")
        fragment = fragment_for(db, rule, "b")
        assert ("1", "2", "3") in fragment

    def test_join_fragments_applies_cross_fragment_builtins(self):
        rule = rule_from_text(
            "r", "b: item(X, Y), c: item(Y, Z), X != Z -> a: item(X, Z)"
        )
        fragments = {
            "b": {("1", "k"), ("2", "k")},
            "c": {("k", "1"), ("k", "9")},
        }
        answers = join_fragments(rule, fragments)
        assert answers == {("1", "9"), ("2", "1"), ("2", "9")}

    def test_join_fragments_empty_source(self):
        rule = rule_from_text("r", "b: item(X, Y), c: item(Y, Z) -> a: item(X, Z)")
        assert join_fragments(rule, {"b": {("1", "k")}, "c": set()}) == set()


class TestRounds:
    def test_round_bookkeeping_on_chain(self):
        system = chain_system()
        node_a = system.node("a")
        node_a.update.start()
        assert node_a.state.pending_answers == {("ab", "b")}
        system.transport.run()
        assert node_a.state.pending_answers == set()
        assert node_a.state.rounds_completed >= 1
        assert node_a.is_update_closed

    def test_dirty_round_triggers_another_round(self):
        system = chain_system()
        for node_id in ("a", "b", "c"):
            system.node(node_id).update.start()
        system.transport.run()
        # a's first round returned b's data only after b itself pulled from c,
        # so a needed at least two rounds (or a push-triggered re-pull).
        assert system.node("a").state.rounds_completed >= 1
        assert system.node("a").database.relation("item").rows() == {("1", "2")}

    def test_node_without_rules_closes_on_start(self):
        system = ScenarioSpec.of(item_schemas("solo"), []).build_system()
        system.node("solo").update.start()
        assert system.node("solo").is_update_closed

    def test_request_rule_while_round_pending_sets_rerun(self):
        system = chain_system()
        node_a = system.node("a")
        node_a.update.start()  # round in flight, not yet delivered
        new_rule = rule_from_text("ac", "c: item(X, Y) -> a: item(X, Y)")
        system.add_rule(new_rule)
        node_a.update.request_rule(new_rule)
        assert node_a.state.rerun_requested
        system.transport.run()
        assert node_a.is_update_closed
        assert ("1", "2") in node_a.database.relation("item").rows()


class TestQueryHandling:
    def test_query_for_deleted_rule_is_ignored(self):
        system = chain_system()
        node_b = system.node("b")
        node_b.handle(
            Message(
                "a",
                "b",
                MessageType.QUERY,
                {"rule_id": "ghost", "requester": "a", "path": ("a",)},
            )
        )
        assert system.transport.pending == 0
        assert not node_b.state.update_owner

    def test_query_registers_owner_once(self):
        system = chain_system()
        node_b = system.node("b")
        for _ in range(2):
            node_b.handle(
                Message(
                    "a",
                    "b",
                    MessageType.QUERY,
                    {"rule_id": "ab", "requester": "a", "path": ("a",)},
                )
            )
        owners = [entry for entry in node_b.state.update_owner if entry.rule_id == "ab"]
        assert len(owners) == 1
        assert system.snapshot_stats().total_duplicate_queries == 1

    def test_answer_for_deleted_rule_is_dropped(self):
        system = chain_system()
        node_a = system.node("a")
        node_a.handle(
            Message(
                "b",
                "a",
                MessageType.ANSWER,
                {
                    "rule_id": "ghost",
                    "source": "b",
                    "tuples": frozenset({("9", "9")}),
                    "complete": True,
                    "path": ("a",),
                },
            )
        )
        assert node_a.database.total_rows() == 0

    def test_leaf_source_reports_complete(self):
        system = chain_system()
        node_c = system.node("c")
        node_c.handle(
            Message(
                "b",
                "c",
                MessageType.QUERY,
                {"rule_id": "bc", "requester": "b", "path": ("b",)},
            )
        )
        assert node_c.state.state_u == UpdateState.CLOSED
        # The queued answer carries complete=True.
        delivered = system.transport.step()
        assert delivered.type == MessageType.ANSWER
        assert delivered.payload["complete"] is True


class TestPushSuppression:
    def test_unchanged_fragment_is_not_pushed_twice(self):
        system = chain_system()
        Session(system).run("update")
        node_b = system.node("b")
        messages_before = system.snapshot_stats().total_messages
        # Force another push round: nothing changed, so nothing is sent.
        node_b.update._push_to_owners()
        assert system.transport.pending == 0
        assert system.snapshot_stats().total_messages == messages_before

    def test_forced_push_bypasses_suppression(self):
        system = chain_system()
        Session(system).run("update")
        node_b = system.node("b")
        node_b.update._push_to_owners(force=True)
        assert system.transport.pending > 0


def converge_naive(system):
    """One naive update run: start every node, drain to quiescence."""
    for node_id in system.nodes:
        system.node(node_id).update.start()
    system.transport.run()


class TestJoinFragmentsDelta:
    def test_delta_join_restricts_to_fresh_rows(self):
        rule = rule_from_text("r", "b: item(X, Y), c: item(Y, Z) -> a: item(X, Z)")
        fragments = {
            "b": {("1", "k"), ("2", "k")},
            "c": {("k", "8"), ("k", "9")},
        }
        # Only ("k", "9") is fresh at c: firings through ("k", "8") are old.
        answers = join_fragments(
            rule, fragments, delta_source="c", delta_rows={("k", "9")}
        )
        assert answers == {("1", "9"), ("2", "9")}

    def test_delta_source_outside_the_rule_yields_nothing(self):
        rule = rule_from_text("r", "b: item(X, Y) -> a: item(X, Y)")
        answers = join_fragments(
            rule, {"b": {("1", "2")}}, delta_source="z", delta_rows={("1", "2")}
        )
        assert answers == set()

    def test_delta_join_is_a_subset_of_the_full_join(self):
        rule = rule_from_text("r", "b: item(X, Y), c: item(Y, Z) -> a: item(X, Z)")
        fragments = {"b": {("1", "k")}, "c": {("k", "8"), ("k", "9")}}
        full = join_fragments(rule, fragments)
        delta = join_fragments(
            rule, fragments, delta_source="c", delta_rows={("k", "9")}
        )
        assert delta <= full


class TestIncrementalMode:
    def test_incremental_insert_propagates_along_the_chain(self):
        system = chain_system()
        converge_naive(system)
        queries_before = system.snapshot_stats().total_queries_executed
        row = ("7", "8")
        system.node("c").database.relation("item").insert(row)
        system.node("c").update.start_incremental({"item": [row]})
        system.transport.run()
        # The row cascaded c -> b -> a through owner pushes alone: no node
        # re-opened and not a single query was executed.
        assert row in system.node("b").database.relation("item").rows()
        assert row in system.node("a").database.relation("item").rows()
        assert all(node.is_update_closed for node in system.nodes.values())
        assert system.snapshot_stats().total_queries_executed == queries_before

    def test_incremental_counters_fire(self):
        system = chain_system()
        converge_naive(system)
        row = ("7", "8")
        system.node("c").database.relation("item").insert(row)
        system.node("c").update.start_incremental({"item": [row]})
        system.transport.run()
        totals = system.stats.incremental_totals()
        assert totals["repro_incremental_seed_rows_total"] == 1
        assert totals["repro_incremental_pushes_total"] >= 2  # c->b and b->a
        assert totals["repro_incremental_rows_derived_total"] >= 2

    def test_empty_seed_is_a_noop(self):
        system = chain_system()
        converge_naive(system)
        messages_before = system.snapshot_stats().total_messages
        system.node("c").update.start_incremental({})
        assert system.transport.pending == 0
        assert system.snapshot_stats().total_messages == messages_before

    def test_delete_between_runs_forces_a_full_reevaluation(self, monkeypatch):
        # A delete between runs forces a full re-evaluation, and a stale
        # fragment is never observable: every answer c sends after the
        # delete is free of the deleted row, with nobody invalidating.
        import repro.core.update as update_module

        full_evaluations = []
        pure_fragment_for = update_module.fragment_for

        def counting_fragment_for(database, rule, node_id):
            full_evaluations.append((rule.rule_id, node_id))
            return pure_fragment_for(database, rule, node_id)

        monkeypatch.setattr(update_module, "fragment_for", counting_fragment_for)
        system = chain_system()
        converge_naive(system)
        row = ("7", "8")
        relation = system.node("c").database.relation("item")
        relation.insert(row)
        system.node("c").update.start_incremental({"item": [row]})
        system.transport.run()
        # Insert-only so far: one full evaluation per (source, body), ever.
        assert sorted(full_evaluations) == [("ab", "b"), ("bc", "c")]
        source = system.node("c")
        assert row in maintain_fragment(source, source.outgoing_rules["bc"]).rows

        relation.delete(row)
        sent = []
        send = system.transport.send

        def recording_send(message):
            sent.append(message)
            send(message)

        monkeypatch.setattr(system.transport, "send", recording_send)
        converge_naive(system)
        assert full_evaluations.count(("bc", "c")) == 2
        answers = [
            message.payload["tuples"]
            for message in sent
            if message.type == MessageType.ANSWER and message.sender == "c"
        ]
        assert answers and all(row not in tuples for tuples in answers)
        assert maintain_fragment(source, source.outgoing_rules["bc"]).rows == {
            ("1", "2")
        }
        assert full_evaluations.count(("bc", "c")) == 2

    def test_incremental_matches_naive_rerun_bit_identically(self):
        # Same insert, one system takes the delta path, the other re-runs
        # naively — final databases (labelled nulls included) must be equal.
        def build():
            rules = [
                rule_from_text("ab", "b: item(X, Y) -> a: item(X, Z)"),
                rule_from_text("bc", "c: item(X, Y) -> b: item(X, Y)"),
            ]
            return ScenarioSpec.of(
                item_schemas("a", "b", "c"),
                rules,
                {"c": {"item": [("1", "2")]}},
            ).build_system()

        incremental, naive = build(), build()
        converge_naive(incremental)
        converge_naive(naive)
        row = ("7", "8")
        for system in (incremental, naive):
            system.node("c").database.relation("item").insert(row)
        incremental.node("c").update.start_incremental({"item": [row]})
        incremental.transport.run()
        converge_naive(naive)
        assert incremental.databases() == naive.databases()
