"""Unit tests for the DBLP generator, topologies and data distributions."""

import pytest

from repro.coordination.depgraph import DependencyGraph
from repro.database.database import LocalDatabase
from repro.database.parser import parse_query
from repro.errors import ReproError
from repro.workloads.dblp import (
    SCHEMA_VARIANTS,
    DblpGenerator,
    rows_for_variant,
    schema_for_variant,
    variant_for_node_index,
)
from repro.workloads.distributions import distribute_records, overlap_statistics
from repro.workloads.topologies import (
    chain_topology,
    clique_topology,
    coordination_rules_for,
    layered_topology,
    random_topology,
    single_relation_rules_for,
    star_topology,
    tree_topology,
)


class TestDblpGenerator:
    def test_deterministic_in_seed_and_index(self):
        first = DblpGenerator(seed=3).generate(5)
        second = DblpGenerator(seed=3).generate(5)
        assert first == second

    def test_different_seed_changes_records(self):
        assert DblpGenerator(seed=1).generate(5) != DblpGenerator(seed=2).generate(5)

    def test_start_index_offsets_keys(self):
        base = DblpGenerator().generate(3)
        offset = DblpGenerator().generate(3, start_index=3)
        assert {r.key for r in base}.isdisjoint({r.key for r in offset})

    def test_record_shape(self):
        (record,) = DblpGenerator().generate(1)
        assert record.as_tuple() == (
            record.key,
            record.title,
            record.author,
            record.year,
            record.venue,
        )
        assert 1994 <= record.year <= 2004


class TestSchemaVariants:
    @pytest.mark.parametrize("variant", SCHEMA_VARIANTS)
    def test_schema_and_rows_are_consistent(self, variant):
        schema = schema_for_variant(variant)
        records = DblpGenerator().generate(4)
        rows = rows_for_variant(records, variant)
        assert set(rows) == set(schema.relation_names)
        for relation_name, relation_rows in rows.items():
            arity = schema.get(relation_name).arity
            assert all(len(row) == arity for row in relation_rows)

    @pytest.mark.parametrize(
        "query, row, where",
        [
            (
                "q(K, TI, AU, YR, VE) :- work(K, TI), venue_of(K, VE, YR), "
                "author_of(K, AU)",
                lambda record: record.as_tuple(),
                lambda record: True,
            ),
            (
                "q(K, TI) :- work(K, TI), venue_of(K, VE, YR), YR >= 2000",
                lambda record: (record.key, record.title),
                lambda record: record.year >= 2000,
            ),
        ],
        ids=["three-way-join", "join-with-builtin"],
    )
    def test_normalised_rows_join_back_into_records(self, query, row, where):
        records = DblpGenerator(seed=1).generate(100)
        db = LocalDatabase(schema_for_variant("norm"))
        for relation, rows in rows_for_variant(records, "norm").items():
            db.insert_many(relation, rows)
        expected = {row(record) for record in records if where(record)}
        assert expected
        assert db.query(parse_query(query)) == expected

    def test_unknown_variant_rejected(self):
        with pytest.raises(ReproError):
            schema_for_variant("nope")
        with pytest.raises(ReproError):
            rows_for_variant([], "nope")

    def test_variant_round_robin(self):
        assert variant_for_node_index(0) == "wide"
        assert variant_for_node_index(1) == "split"
        assert variant_for_node_index(2) == "norm"
        assert variant_for_node_index(3) == "wide"


class TestTopologies:
    def test_tree_counts(self):
        spec = tree_topology(3, fanout=2)
        assert spec.node_count == 15
        assert spec.edge_count == 14
        assert spec.depth == 3

    def test_tree_depth_zero(self):
        spec = tree_topology(0)
        assert spec.node_count == 1
        assert spec.edge_count == 0

    def test_chain_and_star(self):
        assert chain_topology(4).edge_count == 3
        star = star_topology(5)
        assert star.edge_count == 5
        assert all(edge[0] == star.nodes[0] for edge in star.edges)

    def test_clique_edges(self):
        spec = clique_topology(4)
        assert spec.edge_count == 12

    def test_layered_topology_is_acyclic(self):
        spec = layered_topology(3, width=3, seed=1)
        rules = coordination_rules_for(spec)
        assert DependencyGraph.from_rules(rules).is_acyclic()

    def test_random_topology_is_acyclic_and_seeded(self):
        first = random_topology(8, 0.4, seed=5)
        second = random_topology(8, 0.4, seed=5)
        assert first.edges == second.edges
        rules = coordination_rules_for(first)
        assert DependencyGraph.from_rules(rules).is_acyclic()

    def test_invalid_parameters(self):
        with pytest.raises(ReproError):
            tree_topology(-1)
        with pytest.raises(ReproError):
            clique_topology(0)
        with pytest.raises(ReproError):
            random_topology(3, 1.5)

    def test_coordination_rules_translate_between_variants(self):
        spec = chain_topology(3)  # variants: wide <- split <- norm
        rules = coordination_rules_for(spec)
        # The wide importer gets 1 rule, the split importer gets 2.
        by_target = {}
        for rule in rules:
            by_target.setdefault(rule.target, []).append(rule)
        assert len(by_target[spec.nodes[0]]) == 1
        assert len(by_target[spec.nodes[1]]) == 2

    def test_single_relation_rules(self):
        spec = chain_topology(3)
        rules = single_relation_rules_for(spec, relation="item", arity=2)
        assert len(rules) == 2
        assert all(rule.head.relation == "item" for rule in rules)


class TestDistributions:
    def test_disjoint_distribution(self):
        spec = tree_topology(2, fanout=2)
        assignment = distribute_records(spec, 10, overlap_probability=0.0, seed=1)
        stats = overlap_statistics(assignment, spec)
        assert stats["mean_edge_overlap"] == 0.0
        assert stats["total_records"] == spec.node_count * 10

    def test_overlap_distribution_creates_intersections(self):
        spec = tree_topology(2, fanout=2)
        assignment = distribute_records(
            spec, 20, overlap_probability=1.0, overlap_fraction=0.5, seed=1
        )
        stats = overlap_statistics(assignment, spec)
        assert stats["edges_with_overlap"] == spec.edge_count
        assert stats["mean_edge_overlap"] == pytest.approx(0.5, abs=0.1)

    def test_overlap_probability_half_is_partial(self):
        # A layered DAG keeps edges one-directional, so the per-edge overlap
        # statistic is not inflated by the reverse edge as it would be on a
        # clique.
        spec = layered_topology(3, width=3, seed=2)
        assignment = distribute_records(
            spec, 10, overlap_probability=0.5, seed=3
        )
        stats = overlap_statistics(assignment, spec)
        assert 0 < stats["edges_with_overlap"] < spec.edge_count

    def test_deterministic_in_seed(self):
        spec = tree_topology(2, fanout=2)
        first = distribute_records(spec, 10, overlap_probability=0.5, seed=7)
        second = distribute_records(spec, 10, overlap_probability=0.5, seed=7)
        assert first == second

    def test_invalid_parameters(self):
        spec = tree_topology(1)
        with pytest.raises(ReproError):
            distribute_records(spec, -1)
        with pytest.raises(ReproError):
            distribute_records(spec, 1, overlap_probability=2.0)


class TestWorkloadsPassStaticAnalysis:
    """Every generator must emit rules whose atoms match the declared schemas.

    This is the regression net of the PR-6 schema audit: the static analyzer
    (docs/analysis.md) cross-checks every generated rule atom — relation name
    and arity — against each peer's schema variant, so drift between
    ``_BODY_BY_VARIANT``/``_HEADS_BY_VARIANT`` and ``schema_for_variant``
    can no longer ship silently.
    """

    @pytest.mark.parametrize(
        "spec",
        [
            tree_topology(2, fanout=2),
            layered_topology(2, width=3, seed=1),
            clique_topology(4),
            chain_topology(5),
            star_topology(4),
        ],
        ids=lambda spec: spec.name,
    )
    def test_dblp_workload_is_schema_consistent(self, spec):
        from repro.analysis import Severity, analyze_parts
        from repro.workloads.scenarios import dblp_workload_parts

        rules, _assignment, schemas, data = dblp_workload_parts(
            spec, records_per_node=2, seed=5
        )
        report = analyze_parts(schemas, rules, data, scenario=spec.name)
        assert report.ok, report.render()
        # Loaded workloads are also free of dead rules and unused peers.
        assert not report.by_severity(Severity.WARNING), report.render()

    def test_single_relation_rules_are_schema_consistent(self):
        from repro.analysis import analyze_parts
        from repro.database.schema import DatabaseSchema, RelationSchema

        spec = clique_topology(4)
        rules = single_relation_rules_for(spec)
        schemas = {
            node: DatabaseSchema([RelationSchema("item", ["x", "y"])])
            for node in spec.nodes
        }
        data = {node: {"item": [("1", "2")]} for node in spec.nodes}
        report = analyze_parts(schemas, rules, data)
        assert report.ok, report.render()
