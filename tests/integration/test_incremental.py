"""End-to-end acceptance of the incremental (delta-driven) update mode.

Three guarantees are pinned here (the model is documented in
``docs/incremental.md``):

* **Parity** — a warm repeat whose only change is rows inserted or removed
  produces final per-node databases *bit-identical* (labelled nulls
  included) to a naive re-run, on every engine.  The warm pooled engines
  take the delta-driven path for that repeat; the one-shot engines re-run
  naively; all must land on the same fix-point as the synchronous reference
  executing the same sequence.  A ``clear`` still takes the naive path.
* **The delta path actually runs** — the ``repro_incremental_*`` counters
  are non-zero exactly when a warm eligible repeat happened, and zero on
  cold or naive runs (no silent fallback in either direction).
* **Work is O(delta)** — a one-row insert into an already-converged larger
  network re-derives only the handful of rows that row entails, not the
  database (asserted through the frontier counters, not wall time).
"""

import pytest

from repro.api import ScenarioSpec, Session
from repro.coordination.rule import rule_from_text
from repro.core.fixpoint import ground_part
from repro.database.nulls import is_null
from repro.database.schema import DatabaseSchema, RelationSchema
from repro.network.latency import UniformLatency
from repro.sharding.sockets import LocalHostCluster
from repro.workloads.scenarios import (
    paper_example_data,
    paper_example_rules,
    paper_example_schemas,
)
from repro.workloads.topologies import layered_topology, tree_topology
from test_warm_bounds import spied_warm_insert

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


def _feeding_rule(system):
    """The first single-atom-body rule: a copy of its exporter's rows."""
    return next(
        rule
        for rule in sorted(system.registry, key=lambda rule: rule.rule_id)
        if len(rule.body) == 1
    )


def _first(relation, keep=lambda row: True):
    return min((row for row in relation if keep(row)), key=repr)


def _delete_base_row(system):
    exporter, atom = _feeding_rule(system).body[0]
    relation = system.node(exporter).database.relation(atom.relation)
    relation.delete(_first(relation))


def _delete_derived_row(system):
    rule = _feeding_rule(system)
    exporter, atom = rule.body[0]
    source = system.node(exporter).database.relation(atom.relation)
    relation = system.node(rule.target).database.relation(rule.head.relation)
    # A row the rule copied from its exporter (its key came from there): the
    # re-run must derive it again.
    keys = {row[0] for row in source}
    relation.delete(_first(relation, lambda row: row[0] in keys))


def _script_delete_then_put_back():
    deleted = []

    def delete(system):
        exporter, atom = _feeding_rule(system).body[0]
        relation = system.node(exporter).database.relation(atom.relation)
        deleted.append(_first(relation))
        relation.delete(deleted[-1])

    def put_back(system):
        exporter, atom = _feeding_rule(system).body[0]
        system.node(exporter).database.relation(atom.relation).insert(deleted[-1])

    return [delete, put_back]


def _script_insert_then_delete():
    def insert(system):
        _insert_feeding_row(system, "short-lived")

    def delete(system):
        exporter, atom = _feeding_rule(system).body[0]
        row = tuple(f"short-lived{i}" for i in range(len(atom.terms)))
        assert system.node(exporter).database.relation(atom.relation).delete(row)

    return [insert, delete]


def _delete_beside_an_insert(system):
    _delete_base_row(system)
    _insert_one_row(system)  # at another node: the lexicographically last


def _clear_the_importer(system):
    rule = _feeding_rule(system)
    system.node(rule.target).database.relation(rule.head.relation).clear()


def _tree_spec():
    return ScenarioSpec.from_topology(tree_topology(2, 2), records_per_node=3, seed=5)


def _witness_spec():
    """The Section 2 example plus an existential rule into a relation no rule
    reads, ``D: w``, whose one base row witnesses ``a1``."""
    schemas = paper_example_schemas()
    schemas["D"] = DatabaseSchema([*schemas["D"], RelationSchema("w", ["x", "z"])])
    data = paper_example_data()
    data["D"]["w"] = [("a1", "known")]
    rules = [*paper_example_rules(), rule_from_text("x1", "A: a(X, Y) -> D: w(X, Z)")]
    return ScenarioSpec.of(schemas, rules, data, super_peer="A")


def _delete_witnesses(system):
    relation = system.node("D").database.relation("w")
    invented = _first(relation, lambda row: is_null(row[1]))
    relation.delete(invented)  # invented again: the same labelled null
    relation.delete(("a1", "known"))  # now a1 needs a null of its own


#: name → (spec, script); each script step is followed by an update.
DELETE_CASES = {
    "base_row": (_tree_spec, lambda: [_delete_base_row]),
    "derived_row_at_the_importer": (_tree_spec, lambda: [_delete_derived_row]),
    "existential_witness": (_witness_spec, lambda: [_delete_witnesses]),
    "delete_then_put_back": (_tree_spec, _script_delete_then_put_back),
    "insert_then_delete": (_tree_spec, _script_insert_then_delete),
    "delete_beside_an_insert": (_tree_spec, lambda: [_delete_beside_an_insert]),
    "clear": (_tree_spec, lambda: [_clear_the_importer]),
}


def _play(spec, script, *, incremental=True):
    """Converge, then play ``script``; the databases and the rows the delta
    path seeded after the converging run and after every step."""
    with Session.from_spec(spec) as session:
        if not incremental:
            session.engine.incremental = False
        session.update()
        seen = [(session.databases(), 0)]
        for step in script:
            totals = session.system.stats.incremental_totals
            before = totals()["repro_incremental_seed_rows_total"]
            step(session.system)
            session.update()
            seeded = totals()["repro_incremental_seed_rows_total"] - before
            seen.append((session.databases(), seeded))
    return seen


class TestDeleteParity:
    """Deletes take the delta path and land where the naive re-run does.

    Nothing derived is retracted (``deleteLink`` keeps imported data, paper
    Section 4), so a removal re-fires only the rules whose head lost rows.
    Each case is played on the delta path, on the same engine pinned naive,
    and on the ``sync`` reference; every database, labelled nulls included,
    must agree after every step.
    """

    @pytest.mark.parametrize("case", sorted(DELETE_CASES))
    @pytest.mark.parametrize("engine", ["pooled", "socket-pooled"])
    def test_the_delta_path_matches_naive_and_sync(self, engine, case, cluster):
        make_spec, script = DELETE_CASES[case]
        spec = make_spec()
        reference = _play(spec, script())
        engine_spec = _spec_for(engine, spec, cluster)
        naive = _play(engine_spec, script(), incremental=False)
        delta = _play(engine_spec, script())
        for (expected, _), (pinned, unseeded), (got, seeded) in zip(
            reference[1:], naive[1:], delta[1:]
        ):
            assert pinned == expected and unseeded == 0
            assert got == expected
            # A clear rewrites the relation: the naive path, seeding nothing.
            assert (seeded > 0) == (case != "clear")
        if case == "derived_row_at_the_importer":
            assert delta[-1][0] == delta[0][0]  # derived again, nothing lost
        if case == "existential_witness":
            before, after = delta[0][0]["D"]["w"], delta[-1][0]["D"]["w"]
            # The deleted null came back as the same labelled null, and a1
            # lost its witness, so it got one invented for it.
            assert after > before - {("a1", "known")}
            [(_a1, invented)] = [row for row in after if row[0] == "a1"]
            assert is_null(invented)


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

    def test_every_warm_insert_seeds_one_row_at_511_nodes(self, monkeypatch):
        visits = {}
        for depth in (5, 8):
            spec = ScenarioSpec.from_topology(
                tree_topology(depth, 2), records_per_node=3, seed=0
            ).with_(transport="pooled", shards=2)
            with Session.from_spec(spec) as session:
                session.run("update")
                for rounds in range(1, 4):
                    _insert_feeding_row(session.system, f"delta{rounds}-")
                    assert session.run("update").engine == "pooled"
                    totals = session.system.stats.incremental_totals()
                    assert totals["repro_incremental_seed_rows_total"] == rounds
                    assert totals["repro_incremental_rows_derived_total"] >= rounds
                counts = spied_warm_insert(session, monkeypatch, "gate")
                assert counts["texts"] == 0
                visits[len(session.system.nodes)] = counts["visits"]
        # The coordinator's bookkeeping does not grow with the network.
        assert visits[511] == visits[63]

    def test_warm_noop_repeat_is_message_free(self):
        spec = ScenarioSpec.from_topology(
            tree_topology(2, 2), records_per_node=3, seed=5
        ).with_(transport="pooled", shards=2)
        with Session.from_spec(spec) as session:
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
