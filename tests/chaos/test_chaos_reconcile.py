"""Partition-then-heal reconciliation across every topology family.

The end of a partition's life: two replicas of one network diverged while
the link was down — each accepted base inserts the other never saw and
chased them to its own fix-point.  :func:`repro.faults.reconcile` computes
each side's :class:`~repro.coordination.changeset.Change` from the
common pre-partition baseline, merges the logs (order-insensitively — see
``tests/property/test_property_reconcile.py``), replays the merged base
facts into both sides and re-runs the update protocol.  Afterwards the two
sides must be *equal* — the fix-point the network would have reached had the
partition never happened — on every topology family the workload generator
produces, with the merge accounted in ``repro_fault_reconciled_rows_total``.
"""

import pytest

from repro.api import ScenarioSpec, Session
from repro.faults import reconcile
from repro.workloads.topologies import TOPOLOGY_FAMILIES, topology_family
from sync_oracle import snapshot_of


def _divergent_insert(session, node, tag):
    """Insert one well-typed row only this side's replica has seen."""
    database = session.system.node(node).database
    relation = sorted(database.facts())[0]
    arity = len(
        next(
            schema for schema in database.schema if schema.name == relation
        ).attributes
    )
    row = tuple(f"{tag}-{k}" for k in range(arity))
    database.insert(relation, row)
    return relation, row


@pytest.mark.parametrize("family", TOPOLOGY_FAMILIES)
def test_diverged_replicas_reconcile_to_one_fixpoint(family, chaos_seed):
    spec = ScenarioSpec.from_topology(
        topology_family(family, 6, seed=chaos_seed),
        records_per_node=2,
        seed=chaos_seed,
    )
    sides = []
    for _ in range(2):
        session = Session.from_spec(spec)
        session.run("discovery")
        session.update()
        sides.append(session)
    baseline = sides[0].system.databases()
    assert sides[1].system.databases() == baseline

    # The simulated partition: each side accepts an insert on a different
    # node (the victims differ whenever the family has more than one node).
    nodes = sorted(sides[0].system.nodes)
    _divergent_insert(sides[0], nodes[0], "left")
    _divergent_insert(sides[1], nodes[-1], "right")

    merged = reconcile(sides, baseline)

    assert merged.inserted_rows >= 2
    assert not merged.removes
    assert snapshot_of(sides[0].system) == snapshot_of(sides[1].system)
    assert sides[0].system.databases() == sides[1].system.databases()
    for session in sides:
        registry = session.system.stats.registry
        assert registry.total("repro_fault_reconciled_rows_total") >= 1


def test_reconcile_is_a_no_op_on_sides_that_never_diverged(chaos_seed):
    spec = ScenarioSpec.from_topology(
        topology_family("tree", 6, seed=chaos_seed),
        records_per_node=2,
        seed=chaos_seed,
    )
    sides = []
    for _ in range(2):
        session = Session.from_spec(spec)
        session.run("discovery")
        session.update()
        sides.append(session)
    baseline = sides[0].system.databases()

    merged = reconcile(sides, baseline)

    assert merged.empty
    for session in sides:
        assert session.system.databases() == baseline
        registry = session.system.stats.registry
        assert registry.total("repro_fault_reconciled_rows_total") == 0
