"""Topology discovery (algorithms A1–A3 of the paper).

The discovery phase makes each participating node aware of the dependency
edges reachable from it, from which it derives its maximal dependency paths
(Definitions 6–7).  The flow is:

* ``Discover`` (A1) — run at the initiating node (the super-peer or any node
  acting on its own behalf): it sends ``requestNodes`` to the source node of
  every coordination rule targeting it.
* ``requestNodes`` (A2) — a node receiving a request records who asked and on
  whose behalf, forwards the request to its own sources *the first time it
  sees that origin* (this is how "the discovery algorithm stops when a node is
  reached twice"), and immediately answers with the dependency edges it knows
  so far.
* ``processAnswer`` (A3) — a node receiving an answer merges the edges into
  its ``Edges`` relation, updates the per-branch flags, and echoes the grown
  edge set to every recorded owner.

Two deliberate deviations from the literal pseudo-code, both required for
termination and documented in DESIGN.md:

* answers are echoed to owners **only when something changed** (the edge set
  grew or the node's state changed); the literal pseudo-code echoes on every
  answer, which livelocks on cyclic topologies;
* the dependency edge reported for a request from ``sender`` to this node is
  ``(sender → this node)``, matching Definition 5 (the head node depends on
  the body node); the pseudo-code's ``⟨ID, IDs⟩`` has the opposite order,
  which contradicts the definition and the example.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

from repro.coordination.depgraph import DependencyGraph
from repro.coordination.rule import NodeId
from repro.core.state import DiscoveryState, OwnerEntry, PathFlags
from repro.network.message import Message, MessageType

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.node import PeerNode


class DiscoveryProtocol:
    """The discovery-phase behaviour of one peer node."""

    def __init__(self, node: "PeerNode"):
        # The node owns this protocol object; a strong reference back would
        # make every peer cyclic garbage that only the collector can free.
        self.node: "PeerNode" = weakref.proxy(node)
        self._finalized_edge_count = -1

    # ------------------------------------------------------------------ A1

    def start(self) -> None:
        """Algorithm A1 (``Discover``): begin discovery on behalf of this node."""
        node = self.node
        state = node.state
        if not node.incoming_rules:
            state.state_d = DiscoveryState.CLOSED
            state.finished = True
            state.paths.clear()
            return
        if state.state_d == DiscoveryState.UNDEFINED:
            state.state_d = DiscoveryState.DISCOVERY
        state.origins_seen.add(node.node_id)
        state.discovery_owner.append(OwnerEntry(requester=None, origin=node.node_id))
        for rule in node.incoming_rules.values():
            for source in rule.sources:
                state.edges.add((node.node_id, source))
                node.send(
                    source,
                    MessageType.REQUEST_NODES,
                    {"sender": node.node_id, "origin": node.node_id},
                )

    # ------------------------------------------------------------------ A2

    def on_request_nodes(self, message: Message) -> None:
        """Algorithm A2 (``requestNodes``): process a discovery request."""
        node = self.node
        state = node.state
        sender: NodeId = message.payload["sender"]
        origin: NodeId = message.payload["origin"]

        if not node.incoming_rules:
            state.state_d = DiscoveryState.CLOSED
            state.finished = True
        elif origin not in state.origins_seen:
            state.origins_seen.add(origin)
            if state.state_d == DiscoveryState.UNDEFINED:
                state.state_d = DiscoveryState.DISCOVERY
            for rule in node.incoming_rules.values():
                for source in rule.sources:
                    state.edges.add((node.node_id, source))
                    node.send(
                        source,
                        MessageType.REQUEST_NODES,
                        {"sender": node.node_id, "origin": origin},
                    )
        else:
            # The request reached this node a second time for the same origin:
            # the branch through this node is finished (loop detection).
            state.finished = True

        if not state.has_discovery_owner(sender, origin):
            state.discovery_owner.append(OwnerEntry(requester=sender, origin=origin))

        # The requester depends on this node: report the corresponding edge
        # together with everything this node already knows.
        edges = set(state.edges)
        edges.add((sender, node.node_id))
        node.send(
            sender,
            MessageType.DISCOVERY_ANSWER,
            {
                "origin": origin,
                "edges": frozenset(edges),
                "state": state.state_d.value,
                "finished": state.finished,
                "responder": node.node_id,
            },
        )

    # ------------------------------------------------------------------ A3

    def on_discovery_answer(self, message: Message) -> None:
        """Algorithm A3 (``processAnswer``): merge an answer and echo changes."""
        node = self.node
        state = node.state
        origin: NodeId = message.payload["origin"]
        received_edges: frozenset = message.payload["edges"]
        answer_state: str = message.payload["state"]
        answer_finished: bool = message.payload["finished"]
        responder: NodeId = message.payload["responder"]

        before_edges = len(state.edges)
        state.edges.update(received_edges)
        edges_changed = len(state.edges) != before_edges

        state_before = (state.state_d, state.finished)
        if answer_state == DiscoveryState.CLOSED.value:
            state.branch_state_closed[responder] = True
        if answer_finished or answer_state == DiscoveryState.CLOSED.value:
            state.branch_finished[responder] = True

        self._refresh_closure()
        state_changed = (state.state_d, state.finished) != state_before

        if edges_changed or state_changed:
            self._echo_to_owners()
        if state_changed and state.state_d == DiscoveryState.CLOSED:
            self.finalize_paths()

    # ------------------------------------------------------------------ misc

    def _refresh_closure(self) -> None:
        """Recompute ``state_d`` / ``finished`` from the per-branch flags."""
        node = self.node
        state = node.state
        sources = {
            source
            for rule in node.incoming_rules.values()
            for source in rule.sources
        }
        if not sources:
            state.state_d = DiscoveryState.CLOSED
            state.finished = True
            return
        if all(state.branch_state_closed.get(source, False) for source in sources):
            state.state_d = DiscoveryState.CLOSED
        if all(state.branch_finished.get(source, False) for source in sources):
            state.finished = True
            # The initiating node (an owner entry with no requester) may close
            # on "all branches finished" even if loops prevented every branch
            # from reporting a closed state (the paper's `if ID == IDo` case).
            if any(entry.requester is None for entry in state.discovery_owner):
                state.state_d = DiscoveryState.CLOSED

    def _echo_to_owners(self) -> None:
        """Forward the accumulated edges to every node that asked us."""
        node = self.node
        state = node.state
        for entry in state.discovery_owner:
            if entry.requester is None:
                continue
            node.send(
                entry.requester,
                MessageType.DISCOVERY_ANSWER,
                {
                    "origin": entry.origin,
                    "edges": frozenset(state.edges),
                    "state": state.state_d.value,
                    "finished": state.finished,
                    "responder": node.node_id,
                },
            )

    def finalize_paths(self) -> None:
        """Compute the node's maximal dependency paths from its ``Edges`` set.

        Called when the node closes during the protocol and again by the
        super-peer once the network is quiescent, so that every participating
        node ends up with its ``Paths`` relation populated (the paper's stated
        post-condition of the discovery phase).

        The enumeration is skipped when the edge set has not changed since the
        last call, and it is capped at ``node.path_limit`` paths — on dense
        topologies the number of maximal dependency paths is factorial in the
        node count, and the update algorithm does not need the full list.
        """
        node = self.node
        state = node.state
        if self._finalized_edge_count == len(state.edges) and state.paths:
            return
        self._finalized_edge_count = len(state.edges)
        graph = DependencyGraph(edges=state.edges)
        graph.add_node(node.node_id)
        state.paths = {
            path: state.paths.get(path, PathFlags())
            for path in graph.maximal_dependency_paths(
                node.node_id, limit=node.path_limit
            )
        }
