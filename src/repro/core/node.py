"""One peer of the P2P database network.

A :class:`PeerNode` bundles what Figure 2 of the paper calls the P2P Layer and
the local database: the node's identifier, its :class:`LocalDatabase` (LDB +
DBS), the coordination rules that target it (``incoming_rules``) and the rules
that read from it (``outgoing_rules``), the per-node protocol state of
Section 3, and the two protocol engines (topology discovery and distributed
update).  The node is transport-agnostic: it only ever calls
``transport.send`` and exposes a single ``handle`` entry point that the
transport invokes for every delivered message — the Database Manager role of
the architecture.
"""

from __future__ import annotations

from typing import Callable

from repro.coordination.rule import CoordinationRule, NodeId
from repro.core.discovery import DiscoveryProtocol
from repro.core.state import NodeState, UpdateState
from repro.core.update import PROPAGATION_POLICIES, UpdateProtocol, fragment_body
from repro.database.database import LocalDatabase
from repro.database.query import ConjunctiveQuery
from repro.errors import ProtocolError, RuleError
from repro.network.message import Message, MessageType
from repro.network.transport import BaseTransport
from repro.stats.collector import StatisticsCollector


class PeerNode:
    """A database peer: local data, coordination rules and protocol engines."""

    def __init__(
        self,
        node_id: NodeId,
        database: LocalDatabase,
        transport: BaseTransport,
        stats: StatisticsCollector | None = None,
        propagation: str = "once",
        path_limit: int = 5_000,
    ):
        if propagation not in PROPAGATION_POLICIES:
            raise ValueError(
                f"propagation must be one of {PROPAGATION_POLICIES}, got {propagation!r}"
            )
        self.node_id = node_id
        self.database = database
        self.transport = transport
        self.stats = stats if stats is not None else transport.stats
        self.propagation = propagation
        # Cap on the number of maximal dependency paths the node materialises
        # during discovery (factorial on dense topologies, see DESIGN.md).
        self.path_limit = path_limit

        self.incoming_rules: dict[str, CoordinationRule] = {}
        self.outgoing_rules: dict[str, CoordinationRule] = {}
        self.state = NodeState()

        self.discovery = DiscoveryProtocol(self)
        self.update = UpdateProtocol(self)

        transport.register(node_id, self.handle)

    # ----------------------------------------------------------------- rules

    def add_incoming_rule(self, rule: CoordinationRule) -> None:
        """Install a rule whose head is at this node."""
        if rule.target != self.node_id:
            raise RuleError(
                f"rule {rule.rule_id!r} targets {rule.target!r}, not {self.node_id!r}"
            )
        self.incoming_rules[rule.rule_id] = rule

    def add_outgoing_rule(self, rule: CoordinationRule) -> None:
        """Install a rule that reads data from this node."""
        if self.node_id not in rule.sources:
            raise RuleError(
                f"rule {rule.rule_id!r} does not read from node {self.node_id!r}"
            )
        self.outgoing_rules[rule.rule_id] = rule

    def remove_incoming_rule(self, rule_id: str) -> None:
        """Uninstall an incoming rule and the fragments stored for it.

        A rule installed under the same id later may have another body, so
        rows of the old shape must not be merged into its fragments.
        """
        self.incoming_rules.pop(rule_id, None)
        self.state.rule_flags.pop(rule_id, None)
        self.state.forget_incoming_rule(rule_id)

    def remove_outgoing_rule(self, rule_id: str) -> None:
        """Uninstall an outgoing rule and forget dependants registered through
        it; its body's maintained fragment goes too unless another outgoing
        rule reads the same body."""
        rule = self.outgoing_rules.pop(rule_id, None)
        body = None if rule is None else fragment_body(rule, self.node_id)[0]
        if any(
            fragment_body(other, self.node_id)[0] == body
            for other in self.outgoing_rules.values()
        ):
            body = None
        self.state.forget_outgoing_rule(rule_id, body)

    # -------------------------------------------------------------- messaging

    def send(
        self,
        recipient: NodeId,
        message_type: MessageType,
        payload: dict,
        *,
        tuples_size: int | None = None,
    ) -> None:
        """Send one protocol message through the transport.

        The message takes ownership of ``payload``: it is sent as it is, not
        copied, so the caller builds a fresh dict per message and does not
        touch it afterwards.  ``tuples_size`` is the modelled size of
        ``payload["tuples"]`` when the caller already knows it (a maintained
        fragment's ``size``).
        """
        self.transport.send(
            Message(
                sender=self.node_id,
                recipient=recipient,
                type=message_type,
                payload=payload,
                tuples_size=tuples_size,
            )
        )

    def handle(self, message: Message) -> None:
        """Dispatch one delivered message to the matching protocol handler."""
        handler = _HANDLERS.get(message.type)
        if handler is None:
            raise ProtocolError(
                f"node {self.node_id!r} cannot handle message type {message.type!r}"
            )
        handler(self, message)

    # ------------------------------------------------------------ control msgs

    def _on_update_request(self, message: Message) -> None:
        """Start the update phase on behalf of the requesting super-peer."""
        path = tuple(message.payload.get("path", ()))
        self.update.start(path)

    def _on_add_rule(self, message: Message) -> None:
        """Section 4 ``addRule`` notification: install a rule at run time."""
        rule: CoordinationRule = message.payload["rule"]
        role: str = message.payload.get("role", "target")
        if role == "target":
            self.add_incoming_rule(rule)
            if self.state.update_started or message.payload.get("trigger", False):
                self.update.request_rule(rule)
        else:
            self.add_outgoing_rule(rule)

    def _on_delete_rule(self, message: Message) -> None:
        """Section 4 ``deleteRule`` notification: drop a rule at run time."""
        rule_id: str = message.payload["rule_id"]
        role: str = message.payload.get("role", "target")
        if role == "target":
            self.remove_incoming_rule(rule_id)
        else:
            self.remove_outgoing_rule(rule_id)

    def _on_reset(self, message: Message) -> None:
        """Super-peer reset: clear protocol state and optionally the statistics."""
        self.state.reset_discovery()
        self.state.reset_update()
        if message.payload.get("clear_data", False):
            self.database.clear()

    # ----------------------------------------------------------------- queries

    def local_query(self, query: ConjunctiveQuery) -> set[tuple]:
        """Answer a local query from the node's own database only.

        After the update phase has reached its fix-point this is exactly the
        paper's goal: "subsequent local queries to be answered locally within
        a node, without fetching data from other nodes at query time".
        """
        return self.database.query(query)

    # ------------------------------------------------------------------ state

    @property
    def is_update_closed(self) -> bool:
        """True when the node reached the update fix-point (``state_u`` closed)."""
        return self.state.state_u == UpdateState.CLOSED

    def __repr__(self) -> str:
        return (
            f"PeerNode({self.node_id!r}, rules_in={len(self.incoming_rules)}, "
            f"rules_out={len(self.outgoing_rules)}, rows={self.database.total_rows()})"
        )


#: Message type -> handler, called as ``handler(node, message)``.  One table
#: for every node: nothing is built per message and no node stores a bound
#: method of itself (that would be a reference cycle).  The protocol methods
#: are looked up on each call, so they stay replaceable on their classes.
_HANDLERS: dict[MessageType, Callable[[PeerNode, Message], None]] = {
    MessageType.REQUEST_NODES: lambda node, m: node.discovery.on_request_nodes(m),
    MessageType.DISCOVERY_ANSWER: lambda node, m: node.discovery.on_discovery_answer(m),
    MessageType.QUERY: lambda node, m: node.update.on_query(m),
    MessageType.ANSWER: lambda node, m: node.update.on_answer(m),
    MessageType.UPDATE_REQUEST: PeerNode._on_update_request,
    MessageType.ADD_RULE: PeerNode._on_add_rule,
    MessageType.DELETE_RULE: PeerNode._on_delete_rule,
    MessageType.RESET: PeerNode._on_reset,
}
