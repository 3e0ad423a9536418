"""Property-based tests for the dynamic-network semantics (Definition 9, Theorem 2)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ScenarioSpec, Session
from repro.coordination.rule import CoordinationRule
from repro.core.dynamics import (
    NetworkChange,
    apply_change_interleaved,
    complete_envelope,
    is_complete_answer,
    is_sound_answer,
    sound_envelope,
)
from repro.database.parser import parse_atom
from repro.database.schema import DatabaseSchema, RelationSchema

NODE_NAMES = ["p0", "p1", "p2", "p3"]

values = st.integers(min_value=0, max_value=5)
rows = st.sets(st.tuples(values, values), max_size=5)
data_strategy = st.fixed_dictionaries({name: rows for name in NODE_NAMES})

edge_strategy = st.tuples(
    st.sampled_from(NODE_NAMES), st.sampled_from(NODE_NAMES)
).filter(lambda e: e[0] != e[1])
edges_strategy = st.sets(edge_strategy, min_size=1, max_size=6)


def copy_rule(rule_id, importer, exporter):
    atom = parse_atom("item(X, Y)")
    return CoordinationRule(rule_id, importer, atom, [(exporter, atom)])


def build_system(edges, data):
    schemas = {
        name: DatabaseSchema([RelationSchema("item", ["x", "y"])])
        for name in NODE_NAMES
    }
    rules = [
        copy_rule(f"r{i}", importer, exporter)
        for i, (importer, exporter) in enumerate(sorted(edges))
    ]
    initial = {name: {"item": sorted(node_rows)} for name, node_rows in data.items()}
    return schemas, rules, initial


class TestTheorem2Properties:
    @given(
        edges=edges_strategy,
        data=data_strategy,
        added=st.lists(edge_strategy, max_size=3),
        delete_count=st.integers(min_value=0, max_value=2),
        steps=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_interleaved_changes_stay_within_the_envelopes(
        self, edges, data, added, delete_count, steps
    ):
        schemas, rules, initial = build_system(edges, data)
        system = ScenarioSpec.of(schemas, rules, initial).build_system()

        change = NetworkChange()
        for index, (importer, exporter) in enumerate(added):
            change.add_link(copy_rule(f"add{index}", importer, exporter))
        for rule in rules[:delete_count]:
            change.delete_link(rule.target, rule.sources[0], rule.rule_id)

        for node_id in sorted(system.nodes):
            system.node(node_id).update.start()
        apply_change_interleaved(system, change, steps_between=steps)

        measured = system.databases()
        upper = sound_envelope(schemas, rules, change, initial)
        lower = complete_envelope(schemas, rules, change, initial)
        assert is_sound_answer(measured, upper)
        assert is_complete_answer(measured, lower)
        # Termination: the transport is quiescent after the finite change.
        assert system.transport.pending == 0

    @given(edges=edges_strategy, data=data_strategy)
    @settings(max_examples=20, deadline=None)
    def test_empty_change_envelopes_coincide_with_fixpoint(self, edges, data):
        schemas, rules, initial = build_system(edges, data)
        system = ScenarioSpec.of(schemas, rules, initial).build_system()
        Session(system).run("update")
        change = NetworkChange()
        measured = system.databases()
        upper = sound_envelope(schemas, rules, change, initial)
        lower = complete_envelope(schemas, rules, change, initial)
        assert is_sound_answer(measured, upper)
        assert is_complete_answer(measured, lower)

    @given(edges=edges_strategy, data=data_strategy, prefix=st.integers(0, 4))
    @settings(max_examples=20, deadline=None)
    def test_subchange_preserves_order_and_relevance(self, edges, data, prefix):
        _schemas, rules, _initial = build_system(edges, data)
        change = NetworkChange()
        for rule in rules:
            change.delete_link(rule.target, rule.sources[0], rule.rule_id)
        prefix = min(prefix, len(change))
        sub = change.initial_subchange(prefix)
        assert len(sub) == prefix
        for node in NODE_NAMES:
            relevant = change.subchange_for([node])
            ids = [op.rule_id for op in relevant]
            all_ids = [op.rule_id for op in change if node in op.involved_nodes]
            assert ids == all_ids
