"""Integration tests for P2PSystem assembly and the SuperPeer role."""

import pytest

from repro.api import Session, SyncEngine
from repro.coordination.rule import rule_from_text
from repro.core.superpeer import SuperPeer
from repro.core.system import P2PSystem
from repro.database.schema import DatabaseSchema, RelationSchema
from repro.errors import ReproError
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

    def test_build_creates_pipes(self, chain_system):
        assert chain_system.pipes.pipe_for("a", "b") is not None
        assert chain_system.pipes.pipe_for("b", "c") is not None
        assert chain_system.pipes.pipe_for("a", "c") is None

    def test_advertisements_published(self, chain_system):
        assert set(chain_system.discovery_service.peers()) == {"a", "b", "c"}
        sharing = set(chain_system.discovery_service.peers_sharing("item"))
        assert sharing == {"a", "b", "c"}

    def test_duplicate_node_rejected(self, chain_system):
        with pytest.raises(ReproError):
            chain_system.add_node("a", item_schemas("a")["a"])

    def test_rule_with_unknown_node_rejected(self, chain_system):
        with pytest.raises(ReproError):
            chain_system.add_rule(
                rule_from_text("zz", "z: item(X, Y) -> a: item(X, Y)")
            )

    def test_remove_rule_closes_pipe(self, chain_system):
        chain_system.remove_rule("ab")
        assert chain_system.pipes.pipe_for("a", "b").closed
        assert "ab" not in chain_system.node("a").incoming_rules
        assert "ab" not in chain_system.node("b").outgoing_rules

    def test_unknown_transport_kind(self):
        with pytest.raises(ReproError):
            P2PSystem.build(item_schemas("a"), transport="carrier-pigeon")

    def test_super_peer_defaults_to_smallest_id(self, chain_system):
        assert chain_system.super_peer == "a"

    def test_super_peer_setter_validates(self, chain_system):
        chain_system.super_peer = "b"
        assert chain_system.super_peer == "b"
        with pytest.raises(ReproError):
            chain_system.super_peer = "zzz"

    def test_unknown_node_lookup(self, chain_system):
        with pytest.raises(ReproError):
            chain_system.node("zzz")

    def test_sync_methods_require_sync_transport(self):
        system = build_paper_example(transport="multiproc")
        session = Session(system, engine=SyncEngine())
        with pytest.raises(ReproError):
            session.run("discovery")
        with pytest.raises(ReproError):
            session.run("update")

    def test_dependency_graph_includes_isolated_nodes(self):
        system = P2PSystem.build(
            item_schemas("a", "b", "solo"),
            [rule_from_text("ab", "b: item(X, Y) -> a: item(X, Y)")],
        )
        assert "solo" in system.dependency_graph().nodes


class TestSuperPeer:
    def test_rule_file_broadcast(self):
        system = P2PSystem.build(item_schemas("a", "b", "c"))
        super_peer = SuperPeer(system, "a")
        rule_file = """
        # data flows towards a
        ab: b: item(X, Y) -> a: item(X, Y)
        bc: c: item(X, Y) -> b: item(X, Y)
        """
        installed = super_peer.broadcast_rules(rule_file)
        assert installed == 2
        assert "ab" in system.registry and "bc" in system.registry

    def test_rebroadcast_skips_existing_rules(self, chain_system):
        super_peer = SuperPeer(chain_system)
        installed = super_peer.broadcast_rules(
            "ab: b: item(X, Y) -> a: item(X, Y)\n"
            "new: c: item(X, Y) -> a: item(X, Y)\n"
        )
        assert installed == 1
        assert "new" in chain_system.registry

    def test_statistics_collection_and_reset(self, chain_system):
        super_peer = SuperPeer(chain_system)
        super_peer.run_discovery()
        super_peer.run_global_update()
        snapshot = super_peer.collect_statistics()
        assert snapshot.total_messages > 0
        super_peer.reset_statistics()
        assert super_peer.collect_statistics().total_messages == 0

    def test_reset_protocol_state(self, chain_system):
        super_peer = SuperPeer(chain_system)
        super_peer.run_discovery()
        super_peer.run_global_update()
        super_peer.reset_protocol_state()
        node_a = chain_system.node("a")
        assert not node_a.is_update_closed
        assert node_a.state.edges == set()
        # Data survives a protocol-state reset.
        assert node_a.database.total_rows() > 0

    def test_reset_protocol_state_with_data(self, chain_system):
        super_peer = SuperPeer(chain_system)
        super_peer.run_global_update()
        super_peer.reset_protocol_state(clear_data=True)
        assert chain_system.node("a").database.total_rows() == 0

    def test_run_global_update_everywhere_vs_origin_only(self):
        # With everywhere=False only the super-peer's dependency closure updates.
        schemas = item_schemas("a", "b", "x", "y")
        rules = [
            rule_from_text("ab", "b: item(X, Y) -> a: item(X, Y)"),
            rule_from_text("xy", "y: item(X, Y) -> x: item(X, Y)"),
        ]
        data = {"b": {"item": [("1", "2")]}, "y": {"item": [("3", "4")]}}
        system = P2PSystem.build(schemas, rules, data, super_peer="a")
        SuperPeer(system, "a").run_global_update(everywhere=False)
        assert system.node("a").database.total_rows() == 1
        assert system.node("x").database.total_rows() == 0

        system_full = P2PSystem.build(schemas, rules, data, super_peer="a")
        SuperPeer(system_full, "a").run_global_update(everywhere=True)
        assert system_full.node("x").database.total_rows() == 1

    def test_parse_rule_file_ignores_comments_and_blank_lines(self):
        rules = SuperPeer.parse_rule_file(
            "# comment\n\nr1: b: item(X, Y) -> a: item(X, Y)\n"
        )
        assert len(rules) == 1
        assert rules[0].rule_id == "r1"
