"""Every engine row reaches the oracle's fix-point on the named networks.

The oracle machine (``tests/property/test_property_oracle.py``) draws small
networks of three to six peers over three relations.  Here the networks are
the ones the paper and the benchmark name: the Section 2 example (cyclic,
existential, its nulls invented in one worker and joined in another) and
the Section 5 DBLP families (a 7-node and a 31-node tree, a star, a layered
network, a 4-clique, a tree whose peers share records).  On each, every row
of ``tests/engines.py``, the partitioned ones on every shard count from one
to four (three cuts the peers unevenly), runs a discovery and an update,
then an insert, a second discovery, an insert at another peer and a second
update: the discovery must leave the first insert pending, and the second
must join it.  After each update every peer is
closed, every rule holds and the ground databases equal the ground part of
``tests/fixpoint_oracle.py``'s chase of the databases the run started from.
"""

import pytest

from repro.api import ScenarioSpec, Session
from repro.core.fixpoint import all_nodes_closed, satisfies_all_rules
from repro.workloads.scenarios import (
    paper_example_data,
    paper_example_rules,
    paper_example_schemas,
)
from repro.workloads.topologies import (
    clique_topology,
    layered_topology,
    star_topology,
    tree_topology,
)
from engines import ENGINES, PARTITIONED
from fixpoint_oracle import chase, ground

NETWORKS = {
    "paper": lambda: ScenarioSpec.of(
        paper_example_schemas(),
        paper_example_rules(),
        paper_example_data(),
        super_peer="A",
    ),
    "tree": lambda: ScenarioSpec.from_topology(tree_topology(2, 2), records_per_node=5),
    "tree-31": lambda: ScenarioSpec.from_topology(
        tree_topology(4, 2), records_per_node=3
    ),
    "star": lambda: ScenarioSpec.from_topology(star_topology(4), records_per_node=5),
    "layered": lambda: ScenarioSpec.from_topology(
        layered_topology(2, 3, seed=1), records_per_node=5, seed=7
    ),
    "clique": lambda: ScenarioSpec.from_topology(clique_topology(4), records_per_node=5),
    "overlap": lambda: ScenarioSpec.from_topology(
        tree_topology(2, 2), records_per_node=5, overlap_probability=0.5
    ),
}

#: (row, shard count); None keeps the row's own.
CONFIGS = [
    (label, shards)
    for label in ENGINES
    for shards in ([1, 2, 3, 4] if label in PARTITIONED else [None])
]


def updated_to_the_fixpoint(session):
    """Run an update and check it against the chase of what it started from."""
    rules, before = tuple(session.system.registry), session.databases()
    result = session.update()
    assert all_nodes_closed(session.system)
    assert satisfies_all_rules(session.system)
    assert ground(result.databases) == ground(chase(rules, before))
    return result


def insert_fresh_row(system, pick):
    """A fresh row at the ``pick``-th peer a rule without a comparison reads,
    into that rule's first body atom (rules with fewest atoms first)."""
    feeders = sorted(
        (rule for rule in system.registry if not rule.comparisons),
        key=lambda rule: (len(rule.body), rule.rule_id),
    )
    sources = {}
    for rule in feeders:
        sources.setdefault(*rule.body[0])
    node_id, atom = list(sources.items())[pick % len(sources)]
    row = tuple(f"fresh-{pick}-{k}" for k in range(len(atom.terms)))
    system.node(node_id).database.insert(atom.relation, row)


@pytest.mark.parametrize(
    "engine, shards",
    CONFIGS,
    ids=[label if shards is None else f"{label}-{shards}" for label, shards in CONFIGS],
)
@pytest.mark.parametrize("network", sorted(NETWORKS))
def test_every_engine_reaches_the_oracle_fixpoint(network, engine, shards, on_engine):
    settings = {} if shards is None else {"shards": shards}
    spec = on_engine(NETWORKS[network](), engine, **settings)
    with Session.from_spec(spec) as session:
        session.run("discovery")
        assert updated_to_the_fixpoint(session).engine == engine.replace(
            "sync-seeded", "sync"
        )
        insert_fresh_row(session.system, 0)
        session.run("discovery")
        insert_fresh_row(session.system, 1)
        updated_to_the_fixpoint(session)
