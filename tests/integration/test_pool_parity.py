"""State parity of the persistent worker pool against the synchronous reference.

The pooled engine's acceptance bar extends the multiproc one: whatever the
partitioning, however many runs share the warm workers, and whatever changes
between those runs (new facts, ``addLink``, ``deleteLink``), the
``pooled`` :class:`~repro.sharding.process.ProcessEngine` must keep every run's final
per-node ground state identical to a :class:`~repro.api.engine.SyncEngine`
session executing the *same sequence* on the paper's three topology
families and the Section 2 example, at K=1 (one persistent worker) and K=4
(real cross-process traffic).  On top of parity, warmth itself is asserted:
worker PIDs stay stable across runs and only deltas are re-shipped.

These tests spawn real worker processes (``multiprocessing`` spawn), so each
pool pays interpreter start-up once; topologies are kept small and runs are
batched onto one warm pool wherever possible.
"""

import pytest

from repro.api import ScenarioSpec, Session
from repro.coordination.rule import rule_from_text
from repro.core.fixpoint import ground_part
from repro.workloads.scenarios import (
    paper_example_data,
    paper_example_rules,
    paper_example_schemas,
)
from repro.workloads.topologies import (
    clique_topology,
    layered_topology,
    tree_topology,
)

TOPOLOGIES = {
    "tree": lambda: tree_topology(2, 2),  # 7 nodes
    "layered": lambda: layered_topology(2, 3, seed=1),  # 9 nodes
    "clique": lambda: clique_topology(4),  # 12 import edges, cyclic
}


def _run(spec: ScenarioSpec):
    session = Session.from_spec(spec)
    session.run("discovery")
    result = session.update()
    return session, result


def _filler_rows(system, node, relation, count=2, tag="warm"):
    """Well-typed new rows for one relation of one node."""
    arity = len(
        next(
            schema for schema in system.node(node).database.schema
            if schema.name == relation
        ).attributes
    )
    return [
        tuple(f"{tag}-{i}-{k}" for k in range(arity)) for i in range(count)
    ]


def _cross_rule(system, rule_id="warm-add"):
    """A new rule importing the last node's first relation into the first node."""
    nodes = sorted(system.nodes)
    target, source = nodes[0], nodes[-1]
    source_relation = sorted(system.node(source).database.facts())[0]
    arity = len(
        next(
            schema for schema in system.node(source).database.schema
            if schema.name == source_relation
        ).attributes
    )
    target_relation, head_arity = next(
        (schema.name, len(schema.attributes))
        for schema in system.node(target).database.schema
        if len(schema.attributes) <= arity
    )
    body = ", ".join(f"V{i}" for i in range(arity))
    head = ", ".join(f"V{i}" for i in range(head_arity))
    return rule_from_text(
        rule_id,
        f"{source}: {source_relation}({body}) -> {target}: {target_relation}({head})",
    )


class TestPooledParity:
    @pytest.mark.parametrize("family", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("shards", [1, 4])
    def test_pooled_matches_sync_on_dblp_topologies(self, family, shards):
        spec = ScenarioSpec.from_topology(
            TOPOLOGIES[family](), records_per_node=5, seed=7
        )
        _sync_session, sync_result = _run(spec)
        pooled_spec = spec.with_(transport="pooled", shards=shards)
        with Session.from_spec(pooled_spec) as session:
            session.run("discovery")
            pooled_result = session.update()
            assert pooled_result.engine == "pooled"
            assert (
                pooled_result.ground_databases() == sync_result.ground_databases()
            )
            traffic = pooled_result.stats.sharding
            assert traffic is not None
            if shards == 1:
                assert traffic.cross_shard_messages == 0
            else:
                assert traffic.cross_shard_messages > 0

    @pytest.mark.parametrize("shards", [1, 4])
    def test_pooled_matches_sync_on_the_paper_example(self, shards):
        # Cyclic, with labelled nulls invented in one process and compared in
        # another — and here additionally chased twice over the same warm
        # workers, which must not mint spurious new witnesses.
        spec = ScenarioSpec.of(
            paper_example_schemas(),
            paper_example_rules(),
            paper_example_data(),
            super_peer="A",
        )
        _sync_session, sync_result = _run(spec)
        pooled_spec = spec.with_(transport="pooled", shards=shards)
        with Session.from_spec(pooled_spec) as session:
            session.run("discovery")
            session.update()
            repeat = session.update()
            assert repeat.ground_databases() == sync_result.ground_databases()

    @pytest.mark.parametrize("shards", [1, 4])
    def test_warm_runs_stay_in_parity_across_link_changes(self, shards):
        """addLink / deleteLink / inserts between runs on one warm pool.

        The sequence — update, insert new facts, update, addLink, update,
        deleteLink, update — is mirrored step by step on a sync session, and
        every step's ground state must match.  The pool must survive the
        whole sequence warm (modulo a re-plan restart, which is allowed but
        must stay invisible in the results).
        """
        spec = ScenarioSpec.from_topology(
            tree_topology(2, 2), records_per_node=3, seed=1
        )
        sync_session = Session.from_spec(spec)
        with Session.from_spec(spec.with_(transport="pooled", shards=shards)) as pooled:
            def step(mutate=None):
                for session in (sync_session, pooled):
                    if mutate is not None:
                        mutate(session.system)
                    session.update()
                assert ground_part(pooled.databases()) == ground_part(
                    sync_session.databases()
                )

            sync_session.run("discovery")
            pooled.run("discovery")
            step()

            leaf = sorted(spec.schemas)[-1]
            relation = sorted(spec.data[leaf])[0]
            rows = _filler_rows(sync_session.system, leaf, relation)
            step(lambda system: system.load_data({leaf: {relation: rows}}))

            rule = _cross_rule(sync_session.system)
            step(lambda system: system.add_rule(rule))

            step(lambda system: system.remove_rule(rule.rule_id))

    def test_workers_stay_warm_across_runs(self):
        """Repeat runs reuse the same worker processes (that is the point)."""
        spec = ScenarioSpec.from_topology(
            tree_topology(2, 2), records_per_node=3, seed=0
        ).with_(transport="pooled", shards=2)
        with Session.from_spec(spec) as session:
            session.run("update")
            pids = session.engine.pool.worker_pids
            session.run("update")
            session.run("update")
            assert session.engine.pool.worker_pids == pids
            assert session.engine.pool.alive

    def test_completion_times_stay_monotone_across_warm_runs(self):
        # Worker virtual clocks persist like the simulator's, so
        # consecutive runs report non-decreasing simulated completion times.
        spec = ScenarioSpec.from_topology(
            tree_topology(2, 2), records_per_node=3, seed=0
        ).with_(transport="pooled", shards=2)
        with Session.from_spec(spec) as session:
            first = session.run("update")
            second = session.run("update")
            assert second.completion_time >= first.completion_time

    def test_pooled_reaches_closure_and_satisfies_rules(self):
        from repro.core.fixpoint import all_nodes_closed, satisfies_all_rules

        spec = ScenarioSpec.from_topology(
            tree_topology(2, 2), records_per_node=5, seed=7
        ).with_(transport="pooled", shards=4)
        with Session.from_spec(spec) as session:
            session.run("discovery")
            session.update()
            assert all_nodes_closed(session.system)
            assert satisfies_all_rules(session.system)

    def test_spec_round_trips_the_pooled_transport(self, tmp_path):
        spec = ScenarioSpec.from_topology(
            tree_topology(1, 2), records_per_node=2, seed=0
        ).with_(transport="pooled", shards=2)
        path = tmp_path / "spec.json"
        spec.dump_json(path)
        loaded = ScenarioSpec.load_json(path)
        assert loaded.transport == "pooled"
        assert loaded.shards == 2
        with Session.from_spec(loaded) as session:
            result = session.run("update")
            assert result.engine == "pooled"
