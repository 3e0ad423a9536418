"""End-to-end acceptance of the incremental (delta-driven) update mode.

Three guarantees are pinned here (the model is documented in
``docs/incremental.md``):

* **Parity** — a warm repeat whose only change is row insertion produces
  final per-node databases *bit-identical* (labelled nulls included) to a
  naive re-run, on every engine.  The warm pooled engines take the
  delta-driven path for that repeat; the one-shot engines re-run naively;
  all must land on the same fix-point as the synchronous reference
  executing the same sequence.
* **The delta path actually runs** — the ``repro_incremental_*`` counters
  are non-zero exactly when a warm eligible repeat happened, and zero on
  cold or naive runs (no silent fallback in either direction).
* **Work is O(delta)** — a one-row insert into an already-converged larger
  network re-derives only the handful of rows that row entails, not the
  database (asserted through the frontier counters, not wall time).
"""

import pytest

from repro.api import ScenarioSpec, Session
from repro.core.fixpoint import ground_part
from repro.network.latency import UniformLatency
from repro.sharding.sockets import LocalHostCluster
from repro.workloads.scenarios import (
    paper_example_data,
    paper_example_rules,
    paper_example_schemas,
)
from repro.workloads.topologies import layered_topology, tree_topology

#: Engine configurations compared against the synchronous reference.  The
#: pooled engines keep worker processes warm across the two updates (the
#: incremental path); the rest re-run naively and double as the control.
#: "sync-seeded" is the simulator under another legal delivery order.
ENGINES = ["sync", "sync-seeded", "multiproc", "pooled", "socket-pooled"]


@pytest.fixture(scope="module")
def cluster():
    """Two real shard-host subprocesses shared by the whole module."""
    with LocalHostCluster(2) as cluster:
        yield cluster


def _spec_for(engine: str, spec: ScenarioSpec, cluster) -> ScenarioSpec:
    if engine == "sync":
        return spec
    if engine == "sync-seeded":
        return spec.with_(latency=UniformLatency(0, 1, seed=5))
    if engine == "multiproc":
        return spec.with_(transport="multiproc", shards=2)
    if engine == "pooled":
        return spec.with_(transport="pooled", shards=2)
    if engine == "socket-pooled":
        return spec.with_(
            transport="socket",
            shards=2,
            hosts=tuple(cluster.addresses),
            pool=True,
        )
    raise AssertionError(engine)


def _insert_one_row(system):
    """Insert one well-typed fresh base row at the lexicographically last node."""
    node_id = sorted(system.nodes)[-1]
    node = system.node(node_id)
    relation = sorted(node.database.facts())[0]
    arity = len(
        next(
            schema for schema in node.database.schema if schema.name == relation
        ).attributes
    )
    row = tuple(f"delta{i}" for i in range(arity))
    node.database.relation(relation).insert(row)
    return node_id, relation, row


def _insert_feeding_row(system, tag="delta"):
    """Insert one fresh row guaranteed to have downstream consequences.

    Picks the first single-atom-body coordination rule (a plain copy rule,
    which every DBLP topology contains) and inserts a fresh well-typed row
    into its exporter's body relation, so at least the rule's importer must
    derive something from it.
    """
    rule = next(
        rule
        for rule in sorted(system.registry, key=lambda rule: rule.rule_id)
        if len(rule.body) == 1
    )
    exporter, atom = rule.body[0]
    row = tuple(f"{tag}{i}" for i in range(len(atom.terms)))
    system.node(exporter).database.relation(atom.relation).insert(row)
    return exporter, atom.relation, row


def _converge_insert_converge(spec: ScenarioSpec):
    """Run update, insert one row, run update again; return the session."""
    session = Session.from_spec(spec)
    session.run("discovery")
    session.update()
    _insert_one_row(session.system)
    session.update()
    return session


class TestIncrementalParity:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_warm_insert_repeat_matches_sync_on_the_paper_example(
        self, engine, cluster
    ):
        # The Section 2 example is cyclic and invents labelled nulls, so this
        # asserts the strongest form of parity: the *complete* databases —
        # nulls included — are identical, not just the ground part.  On the
        # pooled engines the second update takes the delta-driven path; on
        # the others it is a naive re-run of the same logical sequence.
        spec = ScenarioSpec.of(
            paper_example_schemas(),
            paper_example_rules(),
            paper_example_data(),
            super_peer="A",
        )
        reference = _converge_insert_converge(spec)
        with _converge_insert_converge(
            _spec_for(engine, spec, cluster)
        ) as session:
            assert session.databases() == reference.databases()

    @pytest.mark.parametrize("engine", ["pooled", "socket-pooled"])
    def test_delta_and_naive_paths_agree_on_one_warm_engine(
        self, engine, cluster
    ):
        # Same engine, same sequence, incremental on vs pinned off: the
        # delta path must change work, never results.  (Sessions run one
        # after the other — the module's two shard hosts serve one warm
        # session at a time.)
        spec = ScenarioSpec.from_topology(
            tree_topology(2, 2), records_per_node=3, seed=5
        )
        engine_spec = _spec_for(engine, spec, cluster)
        with Session.from_spec(engine_spec) as naive:
            naive.engine.incremental = False
            naive.run("discovery")
            naive.update()
            _insert_one_row(naive.system)
            naive.update()
            totals = naive.system.stats.incremental_totals()
            assert all(value == 0 for value in totals.values())
            naive_databases = naive.databases()
        with _converge_insert_converge(engine_spec) as incremental:
            totals = incremental.system.stats.incremental_totals()
            assert totals["repro_incremental_seed_rows_total"] == 1
            assert incremental.databases() == naive_databases


class TestIncrementalWork:
    def test_cold_runs_leave_the_counters_at_zero(self):
        spec = ScenarioSpec.from_topology(
            tree_topology(2, 2), records_per_node=3, seed=5
        ).with_(transport="pooled", shards=2)
        with Session.from_spec(spec) as session:
            session.run("discovery")
            session.update()
            totals = session.system.stats.incremental_totals()
            assert all(value == 0 for value in totals.values())

    def test_warm_one_row_insert_rederives_only_the_delta(self):
        # A converged layered network holds hundreds of derived rows; a
        # single new base row must re-derive only its own consequences.  The
        # bound is on *rows the chase derived* (the frontier counters), so
        # the assertion is about work, independent of machine speed.
        spec = ScenarioSpec.from_topology(
            layered_topology(3, 3, seed=2), records_per_node=8, seed=2
        ).with_(transport="pooled", shards=2)
        with Session.from_spec(spec) as session:
            session.run("discovery")
            session.update()
            total_rows = sum(
                len(rows)
                for relations in session.databases().values()
                for rows in relations.values()
            )
            rows_before = total_rows
            _insert_feeding_row(session.system)
            session.update()
            totals = session.system.stats.incremental_totals()
            assert totals["repro_incremental_seed_rows_total"] == 1
            derived = totals["repro_incremental_rows_derived_total"]
            assert derived >= 1  # the row feeds a copy rule: it must cascade
            # O(delta), not O(db): far fewer rows touched than the database
            # holds (a naive re-pull would re-derive all of them).
            assert derived < total_rows / 10
            # And the consequences actually landed in the merged databases.
            rows_after = sum(
                len(rows)
                for relations in session.databases().values()
                for rows in relations.values()
            )
            assert rows_after >= rows_before + 1 + derived

    @pytest.mark.slow
    def test_every_warm_insert_seeds_one_row_at_511_nodes(self):
        spec = ScenarioSpec.from_topology(
            tree_topology(8, 2), records_per_node=3, seed=0
        ).with_(transport="pooled", shards=2)
        with Session.from_spec(spec, capture_deltas=False) as session:
            session.run("update")
            for rounds in range(1, 4):
                _insert_feeding_row(session.system, f"delta{rounds}-")
                assert session.run("update").engine == "pooled"
                totals = session.system.stats.incremental_totals()
                assert totals["repro_incremental_seed_rows_total"] == rounds
                assert totals["repro_incremental_rows_derived_total"] >= rounds

    def test_warm_noop_repeat_is_message_free(self):
        spec = ScenarioSpec.from_topology(
            tree_topology(2, 2), records_per_node=3, seed=5
        ).with_(transport="pooled", shards=2)
        with Session.from_spec(spec, capture_deltas=False) as session:
            session.run("discovery")
            session.run("update")
            # Coordinator counters are cumulative across runs (like the
            # simulator's), so the no-op is asserted as a zero
            # *delta* in total messages.
            before = session.snapshot_stats().total_messages
            session.run("update")
            # Nothing changed: the incremental run seeds nothing, pushes
            # nothing, and the final state is still the fix-point.
            assert session.snapshot_stats().total_messages == before
            assert ground_part(session.databases())  # still holds the data
