"""Workload generation for the experiments of Section 5.

The paper's preliminary experiments used "local relational databases ...
based on DBLP data ... about 20000 records about publications (about 1000 per
node), organised in 3 different relational schemas", two data distributions
(0% and 50% chance of overlap between acquainted nodes) and three topologies
(trees, layered acyclic graphs and cliques).  This package generates the
synthetic equivalent:

* :mod:`repro.workloads.dblp` — deterministic DBLP-like publication records
  and the three relational schema variants,
* :mod:`repro.workloads.topologies` — tree / layered-DAG / clique / chain /
  star / random topologies and the coordination rules connecting nodes with
  heterogeneous schemas,
* :mod:`repro.workloads.distributions` — assignment of records to nodes with
  a configurable overlap probability along coordination edges,
* :mod:`repro.workloads.scenarios` — the paper's 5-node running example.

:meth:`repro.api.ScenarioSpec.from_topology` puts a topology, its records and
its rules together into the DBLP sharing network the experiments run.
"""

from repro.workloads.dblp import (
    PublicationRecord,
    DblpGenerator,
    SCHEMA_VARIANTS,
    schema_for_variant,
    rows_for_variant,
)
from repro.workloads.topologies import (
    TopologySpec,
    tree_topology,
    layered_topology,
    clique_topology,
    chain_topology,
    star_topology,
    random_topology,
    coordination_rules_for,
)
from repro.workloads.distributions import distribute_records
from repro.workloads.scenarios import (
    paper_example_schemas,
    paper_example_rules,
    paper_example_data,
    build_paper_example,
)

__all__ = [
    "PublicationRecord",
    "DblpGenerator",
    "SCHEMA_VARIANTS",
    "schema_for_variant",
    "rows_for_variant",
    "TopologySpec",
    "tree_topology",
    "layered_topology",
    "clique_topology",
    "chain_topology",
    "star_topology",
    "random_topology",
    "coordination_rules_for",
    "distribute_records",
    "paper_example_schemas",
    "paper_example_rules",
    "paper_example_data",
    "build_paper_example",
]
