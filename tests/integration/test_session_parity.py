"""Strategy parity through the unified Session façade.

``distributed``, ``centralized`` and (on acyclic topologies) ``acyclic``
reach the same ground fix-point on the same scenario (Lemma 1's
soundness/completeness, checked through one API).
"""

import pytest

from repro.api import ScenarioSpec, Session
from repro.workloads.scenarios import (
    paper_example_data,
    paper_example_rules,
    paper_example_schemas,
)
from repro.workloads.topologies import tree_topology


def paper_spec() -> ScenarioSpec:
    return ScenarioSpec.of(
        paper_example_schemas(),
        paper_example_rules(),
        paper_example_data(),
        super_peer="A",
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
