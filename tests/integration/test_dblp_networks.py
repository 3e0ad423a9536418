"""Integration tests on the DBLP workload networks (the Section 5 configuration).

Which peer ends up with which publications; that every update reaches the
fix-point is the oracle machine's to check (``test_property_oracle.py``).
"""

from repro.api import ScenarioSpec, Session
from repro.core.fixpoint import all_nodes_closed
from repro.database.parser import parse_query
from repro.workloads.topologies import clique_topology, tree_topology


#: Schema variant -> the relation holding one row per publication, key first.
PRIMARY = {"wide": "pub", "split": "article", "norm": "work"}


def run_network(topology, **kwargs):
    spec = ScenarioSpec.from_topology(topology, **kwargs)
    system = spec.build_system()
    session = Session(system)
    session.run("discovery")
    session.run("update")
    return spec, system


def record_keys(spec, topology, nodes):
    """The keys of the publications initially loaded at ``nodes``."""
    return {
        row[0]
        for node in nodes
        for row in spec.data.get(node, {}).get(PRIMARY[topology.variant_of(node)], ())
    }


class TestTreeNetwork:
    def test_root_accumulates_every_publication(self):
        topology = tree_topology(2, 2)
        spec, system = run_network(topology, records_per_node=10)
        root = topology.nodes[0]  # wide variant
        answers = system.local_query(root, parse_query("q(K) :- pub(K, T, A, Y, V)"))
        distinct_keys = record_keys(spec, topology, topology.nodes)
        assert len(answers) == len(distinct_keys)

    def test_leaves_keep_only_their_own_records(self):
        topology = tree_topology(2, 2)
        spec, system = run_network(topology, records_per_node=10)
        leaf = topology.nodes[-1]
        leaf_keys_before = record_keys(spec, topology, [leaf])
        relation = PRIMARY[topology.variant_of(leaf)]
        rows = system.node(leaf).database.relation(relation).rows()
        assert len(rows) == len(leaf_keys_before)


class TestOtherTopologies:
    def test_small_clique_every_node_gets_everything(self):
        topology = clique_topology(4)
        spec, system = run_network(topology, records_per_node=8)
        distinct_keys = record_keys(spec, topology, topology.nodes)
        for node in topology.nodes:
            relation = PRIMARY[topology.variant_of(node)]
            rows = system.node(node).database.relation(relation).rows()
            assert len(rows) == len(distinct_keys)
        assert all_nodes_closed(system)


class TestOverlapDistribution:
    def test_overlap_reduces_inserted_tuples(self):
        topology = tree_topology(2, 2)
        _, disjoint = run_network(
            topology, records_per_node=20, overlap_probability=0.0
        )
        _, overlapping = run_network(
            topology, records_per_node=20, overlap_probability=1.0, overlap_fraction=0.5
        )
        inserted_disjoint = disjoint.snapshot_stats().total_tuples_inserted
        inserted_overlap = overlapping.snapshot_stats().total_tuples_inserted
        assert inserted_overlap < inserted_disjoint
