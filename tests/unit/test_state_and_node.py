"""Unit tests for NodeState and PeerNode plumbing."""

import pytest

from repro.coordination.rule import rule_from_text
from repro.core.node import PeerNode
from repro.core.state import (
    DiscoveryState,
    NodeState,
    OwnerEntry,
    UpdateState,
)
from repro.database.database import LocalDatabase
from repro.database.parser import parse_query
from repro.database.schema import DatabaseSchema, RelationSchema
from repro.errors import ProtocolError, RuleError
from repro.network.message import Message
from repro.network.transport import SyncTransport


def make_node(node_id="a", propagation="once"):
    transport = SyncTransport()
    database = LocalDatabase(DatabaseSchema([RelationSchema("item", ["x", "y"])]))
    return PeerNode(node_id, database, transport, propagation=propagation), transport


class TestNodeState:
    def test_initial_values(self):
        state = NodeState()
        assert state.state_d == DiscoveryState.UNDEFINED
        assert state.state_u == UpdateState.OPEN
        assert not state.finished
        assert state.maximal_paths() == []

    def test_owner_lookup_helpers(self):
        state = NodeState()
        state.discovery_owner.append(OwnerEntry(requester="b", origin="c"))
        state.update_owner.append(OwnerEntry(requester="b", origin="c", rule_id="r"))
        assert state.has_discovery_owner("b", "c")
        assert not state.has_discovery_owner("b", "x")
        assert state.has_update_owner("b", "r")
        assert not state.has_update_owner("b", "other")


class TestPeerNode:
    def test_registration_with_transport(self):
        node, transport = make_node()
        assert transport.is_registered("a")

    def test_invalid_propagation_policy(self):
        transport = SyncTransport()
        database = LocalDatabase(DatabaseSchema([RelationSchema("item", ["x", "y"])]))
        with pytest.raises(ValueError):
            PeerNode("a", database, transport, propagation="sometimes")

    def test_add_incoming_rule_validates_target(self):
        node, _ = make_node("a")
        rule = rule_from_text("r", "b: item(X, Y) -> a: item(X, Y)")
        node.add_incoming_rule(rule)
        assert "r" in node.incoming_rules
        wrong = rule_from_text("w", "a: item(X, Y) -> c: item(X, Y)")
        with pytest.raises(RuleError):
            node.add_incoming_rule(wrong)

    def test_add_outgoing_rule_validates_source(self):
        node, _ = make_node("a")
        rule = rule_from_text("r", "a: item(X, Y) -> b: item(X, Y)")
        node.add_outgoing_rule(rule)
        assert "r" in node.outgoing_rules
        wrong = rule_from_text("w", "b: item(X, Y) -> c: item(X, Y)")
        with pytest.raises(RuleError):
            node.add_outgoing_rule(wrong)

    def test_remove_rules(self):
        node, _ = make_node("a")
        incoming = rule_from_text("in", "b: item(X, Y) -> a: item(X, Y)")
        outgoing = rule_from_text("out", "a: item(X, Y) -> b: item(X, Y)")
        node.add_incoming_rule(incoming)
        node.add_outgoing_rule(outgoing)
        node.remove_incoming_rule("in")
        node.remove_outgoing_rule("out")
        assert node.incoming_rules == {}
        assert node.outgoing_rules == {}

    def test_unknown_message_type_raises(self):
        node, _ = make_node("a")
        message = Message("x", "a", "stats_request", {})
        with pytest.raises(ProtocolError):
            node.handle(message)

    @pytest.mark.parametrize(
        "retired",
        [
            "update_request",
            "add_rule",
            "delete_rule",
            "stats_request",
            "stats_reply",
            "reset",
        ],
    )
    def test_a_retired_control_type_is_rejected_and_changes_nothing(self, retired):
        """A frame from outside the process may still carry one of the old
        control types; the peer refuses it before touching state or data."""
        node, transport = make_node("a")
        node.database.insert("item", ("1", "2"))
        node.state.state_u = UpdateState.CLOSED
        with pytest.raises(ProtocolError):
            node.handle(Message("x", "a", retired, {"clear_data": True}))
        assert node.state.state_u == UpdateState.CLOSED
        assert node.database.total_rows() == 1
        assert transport.pending == 0

    def test_local_query(self):
        node, _ = make_node("a")
        node.database.insert("item", ("1", "2"))
        assert node.local_query(parse_query("q(X) :- item(X, Y)")) == {("1",)}

    def test_is_update_closed_reflects_state(self):
        node, _ = make_node("a")
        assert not node.is_update_closed
        node.state.state_u = UpdateState.CLOSED
        assert node.is_update_closed

    def test_repr_mentions_id_and_counts(self):
        node, _ = make_node("a")
        assert "a" in repr(node)
