"""Unit tests for the shard planner."""

import pytest

from repro.errors import ReproError
from repro.sharding import ShardPlan, ShardPlanner, round_robin_plan
from repro.workloads.topologies import (
    chain_topology,
    clique_topology,
    tree_topology,
)


# ------------------------------------------------------------------- planner


class TestShardPlanner:
    def test_plan_covers_every_node_exactly_once(self):
        spec = tree_topology(3, 2)
        plan = ShardPlanner(4).plan_topology(spec)
        assert sorted(plan.shard_of) == sorted(spec.nodes)
        assert sum(plan.shard_sizes) == spec.node_count

    def test_shards_are_balanced(self):
        spec = tree_topology(3, 2)  # 15 nodes
        plan = ShardPlanner(4).plan_topology(spec)
        assert max(plan.shard_sizes) <= -(-spec.node_count // 4)  # ceil(15/4) = 4
        assert min(plan.shard_sizes) >= 1

    def test_chain_cut_is_near_optimal(self):
        # A 16-node chain split in two has an optimal cut of exactly 1 edge;
        # the greedy planner must land at (or very near) that, and far below
        # the locality-blind round-robin baseline (which cuts every edge).
        spec = chain_topology(16)
        plan = ShardPlanner(2).plan_topology(spec)
        baseline = round_robin_plan(spec.nodes, 2)
        assert len(plan.cut_edges()) <= 2
        assert len(plan.cut_edges()) < len(baseline.cut_edges(spec.edges))

    def test_tree_cut_beats_round_robin(self):
        spec = tree_topology(4, 2)  # 31 nodes
        plan = ShardPlanner(4).plan_topology(spec)
        baseline = round_robin_plan(spec.nodes, 4)
        assert plan.cut_fraction() < baseline.cut_fraction(spec.edges)

    def test_single_shard_has_no_cut(self):
        spec = clique_topology(5)
        plan = ShardPlanner(1).plan_topology(spec)
        assert plan.cut_edges() == ()
        assert plan.cut_fraction() == 0.0

    def test_more_shards_than_nodes_is_clamped(self):
        spec = chain_topology(3)
        plan = ShardPlanner(8).plan_topology(spec)
        assert plan.shard_count == 3
        assert sorted(plan.shard_of.values()) == [0, 1, 2]

    def test_plan_is_deterministic(self):
        spec = tree_topology(4, 2)
        first = ShardPlanner(3).plan_topology(spec)
        second = ShardPlanner(3).plan_topology(spec)
        assert first.shard_of == second.shard_of

    def test_plan_rules_uses_dependency_edges(self, paper_rules):
        plan = ShardPlanner(2).plan_rules(paper_rules)
        assert sorted(plan.shard_of) == ["A", "B", "C", "D", "E"]

    def test_unknown_node_raises(self):
        plan = ShardPlan(shard_count=1, shard_of={"a": 0})
        with pytest.raises(ReproError):
            plan.shard("zz")

    def test_invalid_assignment_raises(self):
        with pytest.raises(ReproError):
            ShardPlan(shard_count=2, shard_of={"a": 5})

    def test_empty_network_raises(self):
        with pytest.raises(ReproError):
            ShardPlanner(2).plan([], [])

    def test_bad_shard_count_raises(self):
        with pytest.raises(ReproError):
            ShardPlanner(0)


class TestShardPlannerEdgeCases:
    """The planner's corner inputs: degenerate graphs and input orderings."""

    def test_single_node_graph(self):
        plan = ShardPlanner(4).plan(["only"], [])
        assert plan.shard_count == 1
        assert plan.shard_of == {"only": 0}
        assert plan.cut_edges() == ()

    def test_shards_exceed_nodes_with_edges(self):
        # 2 connected nodes, 16 requested shards: the plan opens exactly 2
        # and still separates or co-locates without out-of-range shards.
        plan = ShardPlanner(16).plan(["a", "b"], [("a", "b")])
        assert plan.shard_count == 2
        assert set(plan.shard_of) == {"a", "b"}
        assert all(0 <= shard < 2 for shard in plan.shard_of.values())

    def test_empty_rule_graph_spreads_nodes_evenly(self):
        # No edges at all (a rule-less network): nothing to cut, so the only
        # job left is balance — nodes spread across shards instead of piling
        # into shard 0.
        nodes = [f"n{i}" for i in range(8)]
        plan = ShardPlanner(4).plan(nodes, [])
        assert plan.shard_sizes == (2, 2, 2, 2)
        assert plan.cut_edges() == ()

    def test_empty_rule_set_via_plan_rules(self):
        plan = ShardPlanner(2).plan_rules([], nodes=["a", "b", "c"])
        assert sorted(plan.shard_of) == ["a", "b", "c"]
        assert plan.cut_edges() == ()

    def test_greedy_partition_ignores_input_ordering(self):
        # Determinism across runs must not depend on the order nodes and
        # edges arrive in: the planner sorts internally, so shuffled input
        # yields the identical assignment.
        spec = tree_topology(3, 2)
        reference = ShardPlanner(3).plan(spec.nodes, spec.edges)
        shuffled_nodes = list(reversed(spec.nodes))
        shuffled_edges = list(reversed(spec.edges))
        again = ShardPlanner(3).plan(shuffled_nodes, shuffled_edges)
        assert again.shard_of == reference.shard_of

    def test_repeated_runs_are_identical(self):
        spec = clique_topology(6)
        plans = [ShardPlanner(3).plan_topology(spec) for _ in range(5)]
        assert all(plan.shard_of == plans[0].shard_of for plan in plans)

    def test_self_loops_and_unknown_endpoints_are_ignored(self):
        plan = ShardPlanner(2).plan(
            ["a", "b"], [("a", "a"), ("a", "ghost"), ("a", "b")]
        )
        assert set(plan.shard_of) == {"a", "b"}
