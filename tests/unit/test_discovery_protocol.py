"""Unit tests for the topology-discovery protocol (algorithms A1-A3)."""

from repro.api import ScenarioSpec, Session
from repro.coordination.rule import rule_from_text
from repro.core.state import DiscoveryState
from repro.database.schema import DatabaseSchema, RelationSchema
from repro.network.message import MessageType


def item_schemas(*names):
    return {
        name: DatabaseSchema([RelationSchema("item", ["x", "y"])]) for name in names
    }


def build(rule_texts, nodes):
    rules = [rule_from_text(f"r{i}", text) for i, text in enumerate(rule_texts)]
    return ScenarioSpec.of(item_schemas(*nodes), rules).build_system()


class TestDiscoverStart:
    def test_node_without_rules_closes_immediately(self):
        system = build([], ["a"])
        system.node("a").discovery.start()
        state = system.node("a").state
        assert state.state_d == DiscoveryState.CLOSED
        assert state.finished
        assert system.transport.pending == 0

    def test_start_sends_one_request_per_source(self):
        system = build(
            ["b: item(X, Y) -> a: item(X, Y)", "c: item(X, Y) -> a: item(X, Y)"],
            ["a", "b", "c"],
        )
        system.node("a").discovery.start()
        assert system.transport.pending == 2
        assert system.node("a").state.state_d == DiscoveryState.DISCOVERY

    def test_start_records_self_owner_entry(self):
        system = build(["b: item(X, Y) -> a: item(X, Y)"], ["a", "b"])
        system.node("a").discovery.start()
        owners = system.node("a").state.discovery_owner
        assert any(entry.requester is None and entry.origin == "a" for entry in owners)


class TestRequestAndAnswerFlow:
    def test_chain_discovery_propagates_edges_back(self):
        system = build(
            ["b: item(X, Y) -> a: item(X, Y)", "c: item(X, Y) -> b: item(X, Y)"],
            ["a", "b", "c"],
        )
        Session(system).run("discovery", origins=["a"])
        state_a = system.node("a").state
        assert state_a.edges == {("a", "b"), ("b", "c")}
        assert state_a.state_d == DiscoveryState.CLOSED
        assert [tuple(p) for p in state_a.maximal_paths()] == [("a", "b", "c")]

    def test_intermediate_node_learns_only_downstream_edges(self):
        system = build(
            ["b: item(X, Y) -> a: item(X, Y)", "c: item(X, Y) -> b: item(X, Y)"],
            ["a", "b", "c"],
        )
        Session(system).run("discovery", origins=["a"])
        # b depends on c only; it must not record the a->b edge as outgoing
        # knowledge relevant to its own paths.
        assert system.node("b").state.maximal_paths() == [("b", "c")]

    def test_two_node_cycle_terminates_and_closes_origin(self):
        system = build(
            ["b: item(X, Y) -> a: item(X, Y)", "a: item(X, Y) -> b: item(X, Y)"],
            ["a", "b"],
        )
        Session(system).run("discovery", origins=["a"])
        state_a = system.node("a").state
        assert state_a.state_d == DiscoveryState.CLOSED
        assert state_a.edges == {("a", "b"), ("b", "a")}
        assert {tuple(p) for p in state_a.maximal_paths()} == {("a", "b", "a")}

    def test_second_origin_reuses_existing_knowledge(self):
        system = build(
            ["b: item(X, Y) -> a: item(X, Y)", "c: item(X, Y) -> b: item(X, Y)"],
            ["a", "b", "c"],
        )
        Session(system).run("discovery", origins=["a"])
        first_messages = system.snapshot_stats().total_messages
        Session(system).run("discovery", origins=["b"])
        second_messages = system.snapshot_stats().total_messages - first_messages
        assert second_messages <= first_messages
        assert system.node("b").state.maximal_paths() == [("b", "c")]

    def test_duplicate_request_marks_branch_finished_without_forwarding(self):
        from repro.network.message import Message

        system = build(
            ["b: item(X, Y) -> a: item(X, Y)", "c: item(X, Y) -> b: item(X, Y)"],
            ["a", "b", "c"],
        )
        node_b = system.node("b")
        system.node("a").discovery.start()
        system.transport.run()
        request_type = MessageType.REQUEST_NODES.value
        before = system.snapshot_stats().messages.by_type[request_type]
        # Re-deliver a request for the same origin: no new forwarding happens,
        # the branch is just marked finished (the "reached twice" stop rule).
        node_b.handle(
            Message("a", "b", MessageType.REQUEST_NODES, {"sender": "a", "origin": "a"})
        )
        system.transport.run()
        after = system.snapshot_stats().messages.by_type[request_type]
        assert after == before
        assert node_b.state.finished


class TestFinalizePaths:
    def test_finalize_is_cached_until_edges_change(self):
        system = build(["b: item(X, Y) -> a: item(X, Y)"], ["a", "b"])
        node = system.node("a")
        Session(system).run("discovery", origins=["a"])
        first = node.state.maximal_paths()
        node.discovery.finalize_paths()  # cached: no change
        assert node.state.maximal_paths() == first
        node.state.edges.add(("b", "c"))
        node.discovery.finalize_paths()
        assert node.state.maximal_paths() != first

    def test_path_limit_is_respected(self):
        system = ScenarioSpec.of(item_schemas("a", "b", "c", "d"), []).build_system()
        node = system.node("a")
        node.path_limit = 2
        node.state.edges.update(
            {("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("c", "d"), ("d", "b")}
        )
        node.discovery.finalize_paths()
        assert 0 < len(node.state.maximal_paths()) <= 2
