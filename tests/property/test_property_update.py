"""Property-based tests: the distributed update matches the centralized fix-point.

This is the library's core invariant (Lemma 1 — soundness and completeness):
for randomly generated topologies, rule sets and initial data, running the
distributed protocol must produce exactly the data the centralized chase
produces, every node must reach the ``closed`` state, and the result must be
closed under every coordination rule.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ScenarioSpec, Session
from repro.baselines.centralized import centralized_update
from repro.coordination.rule import CoordinationRule
from repro.core.fixpoint import all_nodes_closed, ground_part, satisfies_all_rules
from repro.database.parser import parse_atom
from repro.database.schema import DatabaseSchema, RelationSchema

NODE_NAMES = ["p0", "p1", "p2", "p3", "p4"]

values = st.integers(min_value=0, max_value=6)
rows = st.sets(st.tuples(values, values), max_size=8)

edges_strategy = st.sets(
    st.tuples(st.sampled_from(NODE_NAMES), st.sampled_from(NODE_NAMES)).filter(
        lambda e: e[0] != e[1]
    ),
    max_size=8,
)

data_strategy = st.fixed_dictionaries({name: rows for name in NODE_NAMES})


def build_setup(edges, data):
    """Single-relation copy rules along the generated import edges."""
    schemas = {
        name: DatabaseSchema([RelationSchema("item", ["x", "y"])])
        for name in NODE_NAMES
    }
    atom = parse_atom("item(X, Y)")
    rules = [
        CoordinationRule(f"{importer}<-{exporter}", importer, atom, [(exporter, atom)])
        for importer, exporter in sorted(edges)
    ]
    initial = {name: {"item": sorted(node_rows)} for name, node_rows in data.items()}
    return schemas, rules, initial


class TestDistributedMatchesCentralized:
    @given(edges=edges_strategy, data=data_strategy)
    @settings(max_examples=30, deadline=None)
    def test_copy_networks_reach_the_centralized_fixpoint(self, edges, data):
        schemas, rules, initial = build_setup(edges, data)
        system = ScenarioSpec.of(schemas, rules, initial).build_system()
        Session(system).run("update")

        reference = centralized_update(schemas, rules, initial).snapshot()
        assert ground_part(system.databases()) == ground_part(reference)
        assert all_nodes_closed(system)
        assert satisfies_all_rules(system)

    @given(edges=edges_strategy, data=data_strategy)
    @settings(max_examples=15, deadline=None)
    def test_per_path_policy_reaches_the_same_fixpoint(self, edges, data):
        schemas, rules, initial = build_setup(edges, data)
        system = ScenarioSpec.of(
            schemas, rules, initial, propagation="per_path"
        ).build_system()
        Session(system).run("update")
        reference = centralized_update(schemas, rules, initial).snapshot()
        assert ground_part(system.databases()) == ground_part(reference)

    @given(edges=edges_strategy, data=data_strategy)
    @settings(max_examples=15, deadline=None)
    def test_update_is_idempotent(self, edges, data):
        schemas, rules, initial = build_setup(edges, data)
        system = ScenarioSpec.of(schemas, rules, initial).build_system()
        Session(system).run("update")
        snapshot_after_first = system.databases()
        for node in system.nodes.values():
            node.state.reset_update()
        Session(system).run("update")
        assert system.databases() == snapshot_after_first

    @given(edges=edges_strategy, data=data_strategy)
    @settings(max_examples=15, deadline=None)
    def test_every_node_keeps_its_initial_data(self, edges, data):
        schemas, rules, initial = build_setup(edges, data)
        system = ScenarioSpec.of(schemas, rules, initial).build_system()
        Session(system).run("update")
        for name, node_rows in data.items():
            assert set(node_rows) <= system.node(name).database.relation("item").rows()


class TestTransformingRules:
    @given(edges=edges_strategy, data=data_strategy)
    @settings(max_examples=20, deadline=None)
    def test_swap_rules_match_centralized(self, edges, data):
        # Rules that swap the two columns while copying — still ground-only,
        # but no longer idempotent per hop, which exercises re-pull rounds.
        schemas = {
            name: DatabaseSchema([RelationSchema("item", ["x", "y"])])
            for name in NODE_NAMES
        }
        head = parse_atom("item(Y, X)")
        body_atom = parse_atom("item(X, Y)")
        rules = [
            CoordinationRule(
                f"{importer}<-{exporter}", importer, head, [(exporter, body_atom)]
            )
            for importer, exporter in sorted(edges)
        ]
        initial = {
            name: {"item": sorted(node_rows)} for name, node_rows in data.items()
        }
        system = ScenarioSpec.of(schemas, rules, initial).build_system()
        Session(system).run("update")
        reference = centralized_update(schemas, rules, initial).snapshot()
        assert ground_part(system.databases()) == ground_part(reference)
        assert all_nodes_closed(system)
