"""Integration tests on the paper's Section 2 running example (E1/E2)."""

from repro.api import Session
from repro.core.fixpoint import (
    all_nodes_closed,
    satisfies_all_rules,
    verify_against_centralized,
)
from repro.core.state import DiscoveryState, UpdateState
from repro.database.parser import parse_query
from repro.network.message import MessageType
from repro.workloads.scenarios import (
    build_paper_example,
    paper_example_data,
    paper_example_rules,
    paper_example_schemas,
)


class TestDiscoveryOnExample:
    def test_super_peer_learns_all_edges(self, paper_system):
        Session(paper_system).run("discovery", origins=["A"])
        node_a = paper_system.node("A")
        assert node_a.state.state_d == DiscoveryState.CLOSED
        assert {
            ("A", "B"),
            ("B", "C"),
            ("C", "A"),
            ("B", "E"),
            ("C", "D"),
            ("D", "A"),
        } <= node_a.state.edges

    def test_super_peer_paths_match_paper_table(self, paper_system):
        Session(paper_system).run("discovery", origins=["A"])
        paths = {"".join(p) for p in paper_system.node("A").state.maximal_paths()}
        assert paths == {"ABE", "ABCA", "ABCB", "ABCDA"}

    def test_discovery_from_all_origins_gives_each_node_its_paths(self, paper_system):
        Session(paper_system).run("discovery", origins=sorted(paper_system.nodes))
        graph = paper_system.dependency_graph()
        for node_id, node in paper_system.nodes.items():
            expected = set(graph.maximal_dependency_paths(node_id))
            assert set(node.state.maximal_paths()) == expected

    def test_leaf_node_closes_immediately(self, paper_system):
        Session(paper_system).run("discovery", origins=["A"])
        node_e = paper_system.node("E")
        assert node_e.state.state_d == DiscoveryState.CLOSED
        assert node_e.state.finished

    def test_discovery_message_types(self, paper_system):
        Session(paper_system).run("discovery", origins=["A"])
        by_type = paper_system.snapshot_stats().messages.by_type
        assert by_type[MessageType.REQUEST_NODES.value] > 0
        assert by_type[MessageType.DISCOVERY_ANSWER.value] > 0
        assert by_type.get(MessageType.QUERY.value, 0) == 0


class TestUpdateOnExample:
    def test_matches_centralized_fixpoint(self, updated_paper_system):
        report = verify_against_centralized(
            updated_paper_system,
            paper_example_schemas(),
            paper_example_rules(),
            paper_example_data(),
        )
        assert report.ground_equal, (report.missing, report.extra)
        assert report.rules_satisfied

    def test_every_node_reaches_closed(self, updated_paper_system):
        assert all_nodes_closed(updated_paper_system)
        for node in updated_paper_system.nodes.values():
            assert node.state.state_u == UpdateState.CLOSED

    def test_rule_r1_copies_e_into_b(self, updated_paper_system):
        b_rows = updated_paper_system.node("B").database.relation("b").rows()
        assert {("s", "t"), ("t", "z")} <= b_rows

    def test_rule_r4_respects_inequality_builtin(self, updated_paper_system):
        # r4: b(X, Y), b(X, Z), X != Z  ->  a(X, Y): every derived a-fact needs
        # a witness b(X, Z) whose second column differs from X.
        a_rows = updated_paper_system.node("A").database.relation("a").rows()
        b_rows = updated_paper_system.node("B").database.relation("b").rows()
        for x, y in a_rows:
            if (x, y) == ("a1", "a2"):
                continue  # initial fact
            assert (x, y) in b_rows
            assert any(bx == x and bz != x for bx, bz in b_rows)

    def test_local_queries_after_update(self, updated_paper_system):
        answers = updated_paper_system.local_query(
            "C", parse_query("q(X, Y) :- c(X, Y)")
        )
        assert ("m", "p") in answers  # from r2 over b(m,n), b(n,p)

    def test_fixpoint_is_semantic(self, updated_paper_system):
        assert satisfies_all_rules(updated_paper_system)

    def test_second_update_run_changes_nothing(self, updated_paper_system):
        before = updated_paper_system.databases()
        Session(updated_paper_system).run("update")
        assert updated_paper_system.databases() == before

    def test_second_update_run_talks_but_reports_no_delta(self, updated_paper_system):
        """With no protocol-state reset between them, the second run still
        queries every rule, and its answers move no row."""
        session = Session(updated_paper_system)
        before = session.snapshot_stats().total_messages
        result = session.run("update")
        assert session.snapshot_stats().total_messages > before
        assert result.deltas.empty
        assert result.deltas.inserted_rows == 0

    def test_per_path_policy_reaches_same_fixpoint(self):
        once = build_paper_example(propagation="once")
        per_path = build_paper_example(propagation="per_path")
        for system in (once, per_path):
            Session(system).run("discovery", origins=["A"])
            Session(system).run("update")
        assert once.databases() == per_path.databases()

    def test_per_path_policy_sends_more_messages(self):
        once = build_paper_example(propagation="once")
        per_path = build_paper_example(propagation="per_path")
        for system in (once, per_path):
            Session(system).run("discovery", origins=["A"])
            Session(system).run("update")
        assert (
            per_path.snapshot_stats().total_messages
            > once.snapshot_stats().total_messages
        )
        assert (
            per_path.snapshot_stats().total_duplicate_queries
            > once.snapshot_stats().total_duplicate_queries
        )

    def test_query_dependent_update_only_touches_dependency_closure(self, paper_system):
        # Start the update only at D: its closure is the whole example except
        # nothing flows INTO E, so E's database must stay untouched.
        Session(paper_system).run("update", origins=["D"])
        e_rows = paper_system.node("E").database.relation("e").rows()
        assert e_rows == frozenset({("s", "t"), ("t", "z")})
        d_rows = paper_system.node("D").database.relation("d").rows()
        assert len(d_rows) > 2  # D imported something via r6
