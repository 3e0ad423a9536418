"""The session's distributed update and the direct baselines agree.

``distributed``, ``centralized`` and (on acyclic topologies) ``acyclic``
reach the same ground fix-point on the same scenario (Lemma 1's
soundness/completeness).  Each baseline computes from the schemas, rules and
data it is handed, so a rule or a row changed between two calls is seen by
the second, and the inputs themselves are left as they were.
"""

import copy

import pytest

from repro.api import ScenarioSpec, Session
from repro.baselines.acyclic import acyclic_update
from repro.baselines.centralized import centralized_update
from repro.baselines.querytime import query_time_answer
from repro.coordination.rule import rule_from_text
from repro.core.fixpoint import ground_part
from repro.database.parser import parse_query
from repro.workloads.scenarios import (
    paper_example_data,
    paper_example_rules,
    paper_example_schemas,
)
from repro.workloads.topologies import tree_topology
from engines import ENGINES

BASELINES = ["centralized", "acyclic", "querytime"]
B_QUERY = parse_query("q(X, Y) :- b(X, Y)")


def paper_spec() -> ScenarioSpec:
    return ScenarioSpec.of(
        paper_example_schemas(),
        paper_example_rules(),
        paper_example_data(),
        super_peer="A",
    )


def distributed(spec: ScenarioSpec) -> dict:
    with Session.from_spec(spec) as session:
        session.run("discovery")
        return session.update().databases


def run_baseline(name: str, schemas, rules, data):
    # The paper example is cyclic; the acyclic baseline only runs forced.
    if name == "acyclic":
        return acyclic_update(schemas, rules, data, force=True)
    if name == "querytime":
        return query_time_answer(schemas, rules, data, "B", B_QUERY)
    return centralized_update(schemas, rules, data)


def rows_of_b(name: str, rules, data) -> set:
    """The rows of B's ``b`` that baseline ``name`` computes."""
    result = run_baseline(name, paper_example_schemas(), rules, data)
    if name == "querytime":
        return set(result.answers)
    return result.databases["B"].query(B_QUERY)


class TestFixPointParity:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_paper_example_reaches_reference_fixpoint(self, engine, on_engine):
        spec = paper_spec()
        reference = centralized_update(spec.schemas, spec.rules, spec.data)
        measured = distributed(on_engine(spec, engine))
        assert ground_part(measured) == ground_part(reference.snapshot())

    @pytest.mark.parametrize("method", ["distributed", "centralized", "acyclic"])
    def test_acyclic_topology_all_methods_agree(self, method):
        spec = ScenarioSpec.from_topology(
            tree_topology(2, 2), records_per_node=6, seed=3
        )
        reference = centralized_update(spec.schemas, spec.rules, spec.data)
        if method == "distributed":
            measured = distributed(spec)
        else:
            run = centralized_update if method == "centralized" else acyclic_update
            measured = run(spec.schemas, spec.rules, spec.data).snapshot()
        assert ground_part(measured) == ground_part(reference.snapshot())


class TestBaselinesReadTheirInputs:
    @pytest.mark.parametrize("name", BASELINES)
    def test_a_fix_point_left_by_a_distributed_run_adds_nothing(self, name):
        reached = distributed(paper_spec())
        if name != "querytime":
            schemas, rules = paper_example_schemas(), paper_example_rules()
            assert run_baseline(name, schemas, rules, reached).tuples_inserted == 0
        assert rows_of_b(name, paper_example_rules(), reached) == set(reached["B"]["b"])

    @pytest.mark.parametrize("name", BASELINES)
    def test_a_direct_insert_is_seen_by_the_next_call(self, name):
        data = paper_example_data()
        assert ("x9", "y9") not in rows_of_b(name, paper_example_rules(), data)
        data["E"]["e"] = [*data["E"]["e"], ("x9", "y9")]
        assert ("x9", "y9") in rows_of_b(name, paper_example_rules(), data)

    @pytest.mark.parametrize("name", BASELINES)
    def test_an_added_rule_is_seen_by_the_next_call(self, name):
        rules = paper_example_rules()
        before = rows_of_b(name, rules, paper_example_data())
        rules.append(rule_from_text("extra-link", "E: e(X, Y) -> B: b(Y, X)"))
        after = rows_of_b(name, rules, paper_example_data())
        assert before < after
        assert ("z", "t") in after - before

    @pytest.mark.parametrize("name", BASELINES)
    def test_a_removed_rule_is_seen_by_the_next_call(self, name):
        rules = paper_example_rules()
        before = rows_of_b(name, rules, paper_example_data())
        after = rows_of_b(
            name, [rule for rule in rules if rule.rule_id != "r1"], paper_example_data()
        )
        assert after < before
        assert ("s", "t") in before - after

    @pytest.mark.parametrize("name", BASELINES)
    def test_a_call_leaves_its_inputs_as_they_were(self, name):
        # A second call from the same inputs computes the same result.
        rules, data = paper_example_rules(), paper_example_data()
        before = (copy.deepcopy(rules), copy.deepcopy(data))
        first = run_baseline(name, paper_example_schemas(), rules, data)
        assert (rules, data) == before
        second = run_baseline(name, paper_example_schemas(), rules, data)
        if name == "querytime":
            assert second == first
        else:
            assert second.snapshot() == first.snapshot()
            assert second.tuples_inserted == first.tuples_inserted > 0
