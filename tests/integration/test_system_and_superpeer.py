"""Integration tests for P2PSystem assembly and the super-peer role."""

import pytest

from repro.api import ScenarioSpec, Session, SyncEngine
from repro.coordination.rule import rule_from_text
from repro.database.schema import DatabaseSchema, RelationSchema
from repro.errors import ChangeError, ReproError
from repro.workloads.scenarios import build_paper_example


def item_schemas(*names):
    return {
        name: DatabaseSchema([RelationSchema("item", ["x", "y"])]) for name in names
    }


class TestSystemAssembly:
    def test_build_wires_rules_to_nodes(self, chain_system):
        assert "ab" in chain_system.node("a").incoming_rules
        assert "ab" in chain_system.node("b").outgoing_rules
        assert "bc" in chain_system.node("b").incoming_rules

    def test_duplicate_node_rejected(self, chain_system):
        with pytest.raises(ReproError):
            chain_system.add_node("a", item_schemas("a")["a"])

    def test_rule_with_unknown_node_rejected(self, chain_system):
        with pytest.raises(ReproError):
            chain_system.add_rule(
                rule_from_text("zz", "z: item(X, Y) -> a: item(X, Y)")
            )

    def test_build_registers_every_peer(self, chain_system):
        assert set(chain_system.nodes) == {"a", "b", "c"}
        for node_id in chain_system.nodes:
            assert chain_system.transport.is_registered(node_id)

    def test_only_peers_a_rule_joins_are_wired(self, chain_system):
        for rule in chain_system.registry:
            assert rule.rule_id in chain_system.node(rule.target).incoming_rules
            for source in rule.sources:
                assert rule.rule_id in chain_system.node(source).outgoing_rules
        a, c = chain_system.node("a"), chain_system.node("c")
        assert not set(a.incoming_rules) & set(c.outgoing_rules)
        assert not set(c.incoming_rules) & set(a.outgoing_rules)

    def test_remove_rule_unwires_both_ends(self, chain_system):
        chain_system.remove_rule("ab")
        assert "ab" not in chain_system.node("a").incoming_rules
        assert "ab" not in chain_system.node("b").outgoing_rules

    def test_removing_one_of_two_rules_between_a_pair_keeps_the_other(
        self, chain_system
    ):
        chain_system.add_rule(
            rule_from_text("ab2", "b: item(X, Y) -> a: item(Y, X)")
        )
        chain_system.remove_rule("ab")
        assert set(chain_system.node("a").incoming_rules) == {"ab2"}
        assert "ab2" in chain_system.node("b").outgoing_rules
        Session(chain_system).run("update")
        assert chain_system.node("a").database.relation("item").rows() == {
            ("2", "1"),
            ("4", "3"),
        }

    def test_readding_a_removed_rule_rewires_both_ends(self, chain_system):
        rule = chain_system.remove_rule("ab")
        chain_system.add_rule(rule)
        assert "ab" in chain_system.node("a").incoming_rules
        assert "ab" in chain_system.node("b").outgoing_rules
        Session(chain_system).run("update")
        assert chain_system.node("a").database.total_rows() == 2

    def test_removing_an_unknown_rule_raises_and_keeps_the_wiring(
        self, chain_system
    ):
        with pytest.raises(ChangeError):
            chain_system.remove_rule("nope")
        assert {rule.rule_id for rule in chain_system.registry} == {"ab", "bc"}
        assert "ab" in chain_system.node("a").incoming_rules

    def test_unknown_transport_kind(self):
        with pytest.raises(ReproError):
            ScenarioSpec.of(
                item_schemas("a"), transport="carrier-pigeon"
            ).build_system()

    def test_super_peer_defaults_to_smallest_id(self, chain_system):
        assert chain_system.super_peer == "a"

    def test_unknown_node_lookup(self, chain_system):
        with pytest.raises(ReproError):
            chain_system.node("zzz")

    def test_sync_methods_require_sync_transport(self):
        system = build_paper_example(transport="pooled")
        session = Session(system, engine=SyncEngine())
        with pytest.raises(ReproError):
            session.run("discovery")
        with pytest.raises(ReproError):
            session.run("update")

    def test_dependency_graph_includes_isolated_nodes(self):
        system = ScenarioSpec.of(
            item_schemas("a", "b", "solo"),
            [rule_from_text("ab", "b: item(X, Y) -> a: item(X, Y)")],
        ).build_system()
        assert "solo" in system.dependency_graph().nodes


class TestSuperPeer:
    def test_statistics_collection_and_reset(self, chain_system):
        session = Session(chain_system)
        session.run("discovery")
        session.run("update")
        snapshot = session.snapshot_stats()
        assert snapshot.total_messages > 0
        session.reset_statistics()
        assert session.snapshot_stats().total_messages == 0

    def test_statistics_count_again_after_a_reset(self, chain_system):
        session = Session(chain_system)
        session.run("discovery")
        session.reset_statistics()
        session.run("update")
        by_type = session.snapshot_stats().messages.by_type
        assert by_type.get("query", 0) > 0 and by_type.get("answer", 0) > 0
        assert by_type.get("request_nodes", 0) == 0
        assert by_type.get("discovery_answer", 0) == 0

    def test_discovery_starts_at_the_super_peer_by_default(self, chain_system):
        Session(chain_system).run("discovery")
        explicit = ScenarioSpec.of(
            item_schemas("a", "b", "c"),
            [
                rule_from_text("ab", "b: item(X, Y) -> a: item(X, Y)"),
                rule_from_text("bc", "c: item(X, Y) -> b: item(X, Y)"),
            ],
            super_peer="a",
        ).build_system()
        Session(explicit).run("discovery", origins=["a"])
        assert chain_system.node("a").state.edges == explicit.node("a").state.edges
        assert chain_system.node("a").state.edges
        assert (
            chain_system.snapshot_stats().total_messages
            == explicit.snapshot_stats().total_messages
        )

    def test_a_second_discovery_changes_nothing(self):
        system = build_paper_example()
        session = Session(system)
        session.run("discovery", origins=["A"])
        edges = set(system.node("A").state.edges)
        paths = set(system.node("A").state.maximal_paths())
        session.run("discovery", origins=["A"])
        assert system.node("A").state.edges == edges
        assert set(system.node("A").state.maximal_paths()) == paths

    def test_a_traced_discovery_lands_in_the_span_histogram(self):
        session = Session(build_paper_example(), trace=True)
        result = session.run("discovery", origins=["A"])
        runs = [s for s in result.extras["trace"]["spans"] if s["name"] == "run"]
        assert len(runs) == 1
        assert runs[0]["attributes"]["phase"] == "discovery"
        text = session.export_metrics("prometheus")
        assert 'repro_span_seconds_count{name="run"} 1' in text

    def test_a_traced_update_carries_the_chase_attributes(self):
        session = Session(build_paper_example(), trace=True)
        session.run("discovery", origins=["A"])
        result = session.run("update")
        (run,) = [s for s in result.extras["trace"]["spans"] if s["name"] == "run"]
        attributes = run["attributes"]
        assert attributes["phase"] == "update"
        assert attributes["a6_calls"] > 0
        assert attributes["a6_rows_inserted"] == result.deltas.inserted_rows > 0

    def test_run_global_update_everywhere_vs_origin_only(self):
        # Started at the super-peer only, the update reaches only its dependency
        # closure; started everywhere (the default), it reaches every node.
        schemas = item_schemas("a", "b", "x", "y")
        rules = [
            rule_from_text("ab", "b: item(X, Y) -> a: item(X, Y)"),
            rule_from_text("xy", "y: item(X, Y) -> x: item(X, Y)"),
        ]
        data = {"b": {"item": [("1", "2")]}, "y": {"item": [("3", "4")]}}
        system = ScenarioSpec.of(schemas, rules, data, super_peer="a").build_system()
        Session(system).run("update", origins=[system.super_peer])
        assert system.node("a").database.total_rows() == 1
        assert system.node("x").database.total_rows() == 0

        system_full = ScenarioSpec.of(
            schemas, rules, data, super_peer="a"
        ).build_system()
        Session(system_full).run("update")
        assert system_full.node("x").database.total_rows() == 1
