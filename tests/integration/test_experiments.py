"""Integration tests of the experiment harness (E1-E10) at reduced scale."""

import pytest

from repro.api import ScenarioSpec
from repro.baselines import centralized_update
from repro.experiments.baseline_comparison import run_baseline_comparison
from repro.experiments.complexity_growth import run_change_growth, run_clique_growth
from repro.experiments.data_distribution import run_data_distribution
from repro.experiments.depth_linearity import run_depth_linearity
from repro.experiments.message_accounting import run_message_accounting
from repro.experiments.paper_example import main as paper_example_main
from repro.experiments.paper_example import run_paper_example
from repro.experiments.runner import run_dblp_update
from repro.experiments.scalability import run_scalability
from repro.experiments.trace_example import run_trace_example
from repro.workloads.topologies import clique_topology, layered_topology, tree_topology


class TestRunner:
    def test_run_dblp_update_metrics(self):
        spec, result = run_dblp_update(
            tree_topology(2, 2), records_per_node=10, check_fixpoint=True
        )
        assert result.node_count == 7
        assert result.update_messages > 0
        assert result.query_messages > 0
        assert result.answer_messages > 0
        assert result.all_closed
        assert result.fixpoint_reached
        assert result.tuples_inserted > 0
        assert set(result.per_node) == set(spec.schemas)


class TestE1PaperExample:
    def test_paths_match_static_computation(self):
        result = run_paper_example()
        assert result.paths_match
        assert result.discovery_messages > 0

    def test_main_prints_table(self, capsys):
        table = paper_example_main()
        captured = capsys.readouterr().out
        assert "E1" in captured
        assert "ABCA" in table


class TestE2Trace:
    @pytest.mark.parametrize("propagation", ["per_path", "once"])
    def test_trace_has_both_phases_in_order(self, propagation):
        result = run_trace_example(propagation=propagation)
        types = [entry.message_type for entry in result.entries]
        assert "request_nodes" in types
        assert "query" in types
        counts = result.counts_by_type
        assert counts["answer"] >= counts["query"] / 2
        # Discovery messages all precede update messages.
        last_discovery = max(
            i for i, t in enumerate(types) if t in ("request_nodes", "discovery_answer")
        )
        first_update = min(i for i, t in enumerate(types) if t in ("query", "answer"))
        assert last_discovery < first_update

    def test_figure1_nodes_subtrace(self):
        result = run_trace_example()
        sub = result.entries_between(frozenset({"A", "B", "C", "E"}))
        assert len(sub) > 0
        assert all(e.sender in {"A", "B", "C", "E"} for e in sub)


class TestE3Scalability:
    def test_small_sweep_runs_and_scales(self):
        results = run_scalability(
            tree_sizes=(3, 7),
            layered_sizes=(4,),
            clique_sizes=(3,),
            records_per_node=8,
        )
        assert len(results) == 4
        tree_results = [r for r in results if r.label.startswith("tree")]
        assert tree_results[1].update_messages > tree_results[0].update_messages
        assert all(r.all_closed for r in results)

    @pytest.mark.parametrize(
        "spec, nodes",
        [
            (tree_topology(3, 2), 15),
            (layered_topology(2, width=3, seed=0), 9),
            (layered_topology(4, width=3, seed=0), 15),
            (clique_topology(5), 5),
            (clique_topology(9), 9),
        ],
        ids=["tree-15", "layered-2x3", "layered-4x3", "clique-5", "clique-9"],
    )
    def test_every_family_reaches_closure(self, spec, nodes):
        _, result = run_dblp_update(spec, records_per_node=5)
        assert result.node_count == nodes
        assert result.all_closed


class TestE4DepthLinearity:
    def test_time_grows_linearly_with_depth(self):
        series = run_depth_linearity(depths=(1, 2, 3, 4), records_per_node=6)
        for family, data in series.items():
            assert data.fit["slope"] > 0, family
            assert data.fit["r_squared"] > 0.9, family
            assert list(data.update_times) == sorted(data.update_times)
            assert list(data.update_messages) == sorted(data.update_messages)

    def test_each_depth_inserts_the_centralized_tuples(self):
        # E4's distributed counts against the centralized fix-point of the
        # same workload.
        series = run_depth_linearity(depths=(1, 2), records_per_node=5)
        topologies = {
            "tree": lambda depth: tree_topology(depth, fanout=2),
            "layered": lambda depth: layered_topology(depth, width=2, seed=0),
        }
        for family, data in series.items():
            for depth, result in zip(data.depths, data.results):
                spec = ScenarioSpec.from_topology(
                    topologies[family](depth), records_per_node=5, seed=0
                )
                reference = centralized_update(spec.schemas, spec.rules, spec.data)
                assert result.tuples_inserted == reference.tuples_inserted > 0


class TestE5DataDistribution:
    @pytest.mark.parametrize(
        "spec",
        [tree_topology(2, 2), layered_topology(2, 3), clique_topology(4)],
        ids=["tree", "layered", "clique"],
    )
    def test_overlap_inserts_fewer_tuples(self, spec):
        comparisons = run_data_distribution(
            specs=[spec], records_per_node=15, overlap_probability=1.0
        )
        (comparison,) = comparisons
        overlapping, disjoint = comparison.overlapping, comparison.disjoint
        assert overlapping.tuples_inserted < disjoint.tuples_inserted
        assert comparison.insertion_ratio < 1.0


class TestE6MessageAccounting:
    def test_per_path_counts_duplicates(self):
        result = run_message_accounting(clique_size=4, records_per_node=6)
        assert result.per_path.duplicate_queries > result.once.duplicate_queries
        assert result.per_path.total_messages > result.once.total_messages

    def test_both_policies_insert_the_centralized_tuples(self):
        result = run_message_accounting(clique_size=3, records_per_node=4)
        spec = ScenarioSpec.from_topology(
            clique_topology(3), records_per_node=4, seed=0
        )
        reference = centralized_update(spec.schemas, spec.rules, spec.data)
        assert reference.tuples_inserted > 0
        assert result.once.tuples_inserted == reference.tuples_inserted
        assert result.per_path.tuples_inserted == reference.tuples_inserted


class TestE9BaselineComparison:
    def test_tree_comparison(self):
        comparison = run_baseline_comparison(
            tree_topology(2, 2), records_per_node=8, queries_in_batch=5
        )
        assert comparison.answers_agree
        assert comparison.acyclic_applicable and comparison.acyclic_matches
        assert comparison.querytime_messages_per_query > 0
        # Materialising pays once, query-time answering per query: a modest
        # batch of queries amortises the update.
        assert 0 < comparison.breakeven_queries < 20

    def test_clique_comparison_rejects_acyclic_baseline(self):
        comparison = run_baseline_comparison(
            clique_topology(4), records_per_node=6, queries_in_batch=5
        )
        assert comparison.answers_agree
        assert not comparison.acyclic_applicable
        assert comparison.breakeven_queries < 20


class TestE10ComplexityGrowth:
    def test_per_path_grows_faster_than_once(self):
        points = run_clique_growth(sizes=(2, 3, 4), records_per_node=4)
        per_path = {p.size: p.update_messages for p in points if p.policy == "per_path"}
        once = {p.size: p.update_messages for p in points if p.policy == "once"}
        assert per_path[4] > once[4]
        assert per_path[4] / per_path[2] > once[4] / once[2]
        assert all(per_path[size] >= once[size] for size in per_path)

    def test_change_growth_is_monotone(self):
        points = run_change_growth(lengths=(1, 2, 4), records_per_node=6)
        extra = [p.extra_messages for p in points]
        assert extra == sorted(extra)
        assert extra[0] > 0
