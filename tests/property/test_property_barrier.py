"""The quiescence barrier over real shard workers, under drawn schedules.

Hypothesis draws a small network — up to seven peers holding an ``item``
relation, copy and existential rules between them, and a partition of the
peers over two or three shards (a shard may own none).  Each shard is a real
:class:`~repro.sharding.worker.ShardWorker` built by
:func:`~repro.sharding.worker._worlds_from_system`, stepped by the
in-memory driver (``tests/memory_driver.py``) one event at a time; the
coordinator is the real :meth:`ShardPool.run_phase`.  Hypothesis also draws
every scheduling choice: which in-flight item arrives next (only FIFO per
sender and receiver is kept, so a ``msg`` can overtake a worker's
``start``), which worker takes its next inbox item or runs one local
delivery, and which reply reaches the coordinator.

For discovery, an update, and an update that inserts a row on the delta
path, the barrier must never certify while an item is in flight, a worker
has local work, holds a message or has not taken the run's ``start``, or a
report is still on its way; every delivery must be in one of the run's
reports; and once it certifies, the shards' facts must be the ground
fix-point a ``sync`` session reaches on the same network.
"""

from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from memory_driver import DrivenPool, MemoryDriver

import repro.sharding.worker as worker_module
from repro.api import ScenarioSpec, Session
from repro.coordination.changeset import Change
from repro.core.fixpoint import ground_part
from repro.database.schema import RelationSchema
from repro.sharding.planner import ShardPlan
from repro.sharding.worker import _worlds_from_system


@st.composite
def networks(draw):
    peers = [f"p{index}" for index in range(draw(st.integers(2, 7)))]
    shards = draw(st.integers(2, 3))
    shard_of = {peer: draw(st.integers(0, shards - 1)) for peer in peers}
    edges = draw(
        st.lists(
            st.tuples(st.sampled_from(peers), st.sampled_from(peers), st.booleans()),
            min_size=1,
            max_size=8,
            unique_by=lambda edge: edge[:2],
        )
    )
    rules = [
        f"r{index}: {source}: item(X, Y) -> {target}: item(X, {'Z' if fresh else 'Y'})"
        for index, (target, source, fresh) in enumerate(edges)
        if target != source
    ]
    rows = st.tuples(st.sampled_from("abc"), st.sampled_from("xyz"))
    data = {peer: {"item": draw(st.lists(rows, max_size=2))} for peer in peers}
    insert = (draw(st.sampled_from(peers)), draw(rows))
    return peers, shards, shard_of, rules, data, insert


def spec_of(peers, rules, data):
    return ScenarioSpec.of(
        {peer: [RelationSchema("item", ["x", "y"])] for peer in peers}, rules, data
    )


def shard_facts(driver):
    return {
        node: worker.system.node(node).database.facts()
        for worker in driver.workers
        for node in worker.world.owned
    }


def sync_fixpoints(spec, insert):
    """``sync``'s ground fix-point after the update, and after the insert."""
    with Session.from_spec(spec, check=False) as session:
        session.run("discovery")
        session.update()
        converged = ground_part(session.databases())
        peer, row = insert
        session.system.node(peer).database.insert("item", row)
        session.update()
        return converged, ground_part(session.databases())


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(networks(), st.data())
def test_the_barrier_certifies_exactly_when_the_workers_terminated(network, data):
    peers, shards, shard_of, rules, rows, insert = network
    spec = spec_of(peers, rules, rows)
    converged, inserted = sync_fixpoints(spec, insert)
    plan = ShardPlan(shards, shard_of)
    # One local delivery per step: the finest interleaving the machines allow.
    with mock.patch.object(worker_module, "_DRAIN_BATCH", 1):
        worlds = _worlds_from_system(spec.build_system(), plan)
        driver = MemoryDriver(
            worlds, lambda count: data.draw(st.integers(0, count - 1))
        )
        pool = DrivenPool(driver, plan, worlds)
        peer, row = insert
        change = Change(inserts={peer: {"item": (row,)}})
        runs = [
            ("discovery", None, None),
            ("update", None, converged),
            ("update", change, inserted),  # the delta path
        ]
        for phase, change, expected in runs:
            before = sum(w.transport.delivered_count for w in driver.workers)
            payloads = pool.run_phase(phase, None, change=change)
            assert driver.quiet(), "certified with work left somewhere"
            for worker in driver.workers:
                assert worker.transport.run_id == pool._run, "certified before a start"
            delivered = sum(w.transport.delivered_count for w in driver.workers)
            assert sum(p["delivered"] for p in payloads) == delivered - before
            if expected is not None:
                assert ground_part(shard_facts(driver)) == expected
            seeded = sum(
                value
                for payload in payloads
                for name, _labels, value in payload["counters"]["counters"]
                if name == "repro_incremental_seed_rows_total"
            )
            assert seeded == (change is not None)
