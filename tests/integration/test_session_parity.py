"""Strategy and engine parity through the unified Session façade.

Two satellite guarantees of the façade refactor:

* *strategy parity* — ``distributed``, ``centralized`` and (on acyclic
  topologies) ``acyclic`` reach the same ground fix-point on the same
  scenario (Lemma 1's soundness/completeness, now checked through one API),
* *schedule parity* — the same scenario converges to the same ground
  fix-point whether the simulator delivers under the default constant
  latency or under a seeded uniform one (another legal delivery order), on
  the paper example and on the tree, layered and clique DBLP families.
"""

import pytest

from repro.api import ScenarioSpec, Session
from repro.coordination.rule import rule_from_text
from repro.core.fixpoint import all_nodes_closed, satisfies_all_rules
from repro.database.schema import DatabaseSchema, RelationSchema
from repro.network.latency import UniformLatency
from repro.workloads.scenarios import (
    paper_example_data,
    paper_example_rules,
    paper_example_schemas,
)
from repro.workloads.topologies import (
    clique_topology,
    layered_topology,
    tree_topology,
)

#: The paper's three topology families at parity-test size.
TOPOLOGIES = {
    "tree": lambda: tree_topology(2, 2),  # 7 nodes
    "layered": lambda: layered_topology(2, 3, seed=1),  # 9 nodes
    "clique": lambda: clique_topology(4),  # 12 import edges, cyclic
}


def paper_spec(**settings) -> ScenarioSpec:
    return ScenarioSpec.of(
        paper_example_schemas(),
        paper_example_rules(),
        paper_example_data(),
        super_peer="A",
        **settings,
    )


def run_strategy(spec: ScenarioSpec, strategy: str) -> dict:
    """One fresh session, discovery (for the live protocol) plus one update."""
    session = Session.from_spec(spec)
    if strategy == "distributed":
        session.run("discovery")
    result = session.update(strategy=strategy)
    return result.ground_databases()


class TestStrategyParity:
    @pytest.mark.parametrize("strategy", ["distributed", "centralized"])
    def test_paper_example_reaches_reference_fixpoint(self, strategy):
        # The paper example is cyclic, so the acyclic baseline is excluded
        # here; the centralized fix-point is the reference (Lemma 1).
        reference = run_strategy(paper_spec(), "centralized")
        measured = run_strategy(paper_spec(), strategy)
        assert measured == reference

    @pytest.mark.parametrize("strategy", ["distributed", "centralized", "acyclic"])
    def test_acyclic_topology_all_strategies_agree(self, strategy):
        spec = ScenarioSpec.from_topology(
            tree_topology(2, 2), records_per_node=6, seed=3
        )
        reference = run_strategy(spec, "centralized")
        measured = run_strategy(spec, strategy)
        assert measured == reference

    def test_querytime_agrees_on_queried_node(self):
        # Query-time answering fetches one node's dependency closure; on that
        # node it must hold the same ground data as the full fix-point.
        spec = paper_spec()
        reference = run_strategy(spec, "centralized")
        session = Session.from_spec(spec)
        result = session.update("querytime", node="A")
        assert result.ground_databases()["A"] == reference["A"]


class TestScheduleParity:
    def test_constant_and_seeded_latency_reach_same_fixpoint(self):
        # Identical data; only the latency model (and hence the delivery
        # interleaving) differs.
        constant_session = Session.from_spec(paper_spec())
        constant_session.run("discovery")
        constant_result = constant_session.update()

        seeded_session = Session.from_spec(
            paper_spec(latency=UniformLatency(0.2, 2.0, seed=11))
        )
        seeded_session.run("discovery")
        seeded_result = seeded_session.update()

        assert (
            constant_result.ground_databases() == seeded_result.ground_databases()
        )
        assert constant_result.engine == seeded_result.engine == "sync"

    def test_dblp_workload_schedule_parity_on_identical_seeds(self):
        base = ScenarioSpec.from_topology(
            tree_topology(1, 2), records_per_node=5, seed=11
        )
        results = []
        for latency in (None, UniformLatency(0.1, 1.0, seed=3)):
            session = Session.from_spec(base.with_(latency=latency))
            session.run("discovery")
            results.append(session.update().ground_databases())
        assert results[0] == results[1]

    @pytest.mark.parametrize("family", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("seed", [1, 2])
    def test_seeded_schedule_matches_constant_on_dblp_topologies(self, family, seed):
        spec = ScenarioSpec.from_topology(
            TOPOLOGIES[family](), records_per_node=5, seed=7
        )
        results = []
        for latency in (None, UniformLatency(0, 1, seed)):
            session = Session.from_spec(spec.with_(latency=latency))
            session.run("discovery")
            results.append(session.update().ground_databases())
        assert results[0] == results[1]

    def test_all_nodes_reach_closure_under_a_seeded_schedule(self):
        spec = ScenarioSpec.from_topology(
            tree_topology(2, 2),
            records_per_node=5,
            seed=7,
            latency=UniformLatency(0, 1, seed=3),
        )
        session = Session.from_spec(spec)
        session.run("discovery")
        session.update()
        assert all_nodes_closed(session.system)
        assert satisfies_all_rules(session.system)

    def test_seeded_chain_update_copies_rows_to_the_end(self):
        schemas = {
            name: DatabaseSchema([RelationSchema("item", ["x", "y"])])
            for name in ("a", "b", "c")
        }
        rules = [
            rule_from_text("ab", "b: item(X, Y) -> a: item(X, Y)"),
            rule_from_text("bc", "c: item(X, Y) -> b: item(X, Y)"),
        ]
        data = {"c": {"item": [("1", "2")]}}
        system = ScenarioSpec.of(
            schemas, rules, data, latency=UniformLatency(0.1, 1.0, seed=3)
        ).build_system()
        snapshot = Session(system).run("update").stats
        assert system.node("a").database.relation("item").rows() == {("1", "2")}
        assert snapshot.total_messages > 0

    def test_seeded_discovery_finds_the_paper_paths(self):
        spec = ScenarioSpec.of(
            paper_example_schemas(),
            paper_example_rules(),
            super_peer="A",
            latency=UniformLatency(0, 1, seed=9),
        )
        session = Session.from_spec(spec)
        session.run("discovery", origins=["A"])
        paths = session.system.node("A").state.maximal_paths()
        assert {"".join(path) for path in paths} == {"ABE", "ABCA", "ABCB", "ABCDA"}

    def test_seeded_run_records_statistics(self):
        session = Session.from_spec(paper_spec(latency=UniformLatency(0, 1, seed=9)))
        session.update()
        snapshot = session.system.snapshot_stats()
        assert snapshot.total_messages > 0
        assert snapshot.total_tuples_inserted > 0
        assert snapshot.simulated_time > 0
