"""Unit tests for the execution façade: spec, strategies, results."""

import subprocess
import sys

import pytest

from repro.api import (
    RunResult,
    ScenarioSpec,
    Session,
    SyncEngine,
    available_strategies,
    engine_for,
    get_strategy,
)
from repro.cli import build_parser, main
from repro.coordination.changeset import Change
from repro.coordination.rule import rule_from_text
from repro.core.system import P2PSystem
from repro.database.schema import DatabaseSchema, RelationSchema
from repro.errors import ReproError
from repro.network.transport import SyncTransport
from repro.workloads.scenarios import (
    paper_example_data,
    paper_example_rules,
    paper_example_schemas,
)
from sync_oracle import snapshot_of


def small_spec() -> ScenarioSpec:
    return ScenarioSpec.of(
        {
            "a": RelationSchema("item", ["x", "y"]),
            "b": RelationSchema("item", ["x", "y"]),
        },
        ["ab: b: item(X, Y) -> a: item(X, Y)"],
        {"b": {"item": [("1", "2"), ("3", "4")]}},
        name="unit",
        super_peer="a",
    )


class TestScenarioSpec:
    def test_of_keeps_every_part(self):
        spec = small_spec()
        assert spec.name == "unit"
        assert spec.node_count == 2
        assert len(spec.rules) == 1
        assert spec.data["b"]["item"] == (("1", "2"), ("3", "4"))
        assert spec.super_peer == "a"

    def test_bad_rule_text_rejected(self):
        with pytest.raises(ReproError):
            ScenarioSpec.of({"a": RelationSchema("item", ["x"])}, ["nonsense"])

    def test_session_runs_update(self):
        session = Session.from_spec(small_spec())
        session.run("discovery")
        result = session.update()
        deltas = result.deltas
        assert set(deltas.inserts["a"]["item"]) == {("1", "2"), ("3", "4")}
        assert not deltas.removes and not deltas.replaces

    def test_of_coerces_loose_parts(self):
        spec = ScenarioSpec.of(
            {"a": [RelationSchema("item", ["x"])], "b": RelationSchema("item", ["x"])},
            ["ab: b: item(X) -> a: item(X)"],
            {"b": {"item": [("1",)]}},
        )
        assert all(isinstance(s, DatabaseSchema) for s in spec.schemas.values())
        assert spec.rules[0].rule_id == "ab"

    def test_with_overrides_settings(self):
        spec = small_spec().with_(transport="pooled", strategy="centralized")
        assert spec.transport == "pooled"
        assert spec.strategy == "centralized"

    def test_build_system_assembles_p2psystem(self):
        system = small_spec().build_system()
        assert isinstance(system, P2PSystem)
        assert set(system.nodes) == {"a", "b"}

    def test_sessions_of_one_spec_do_not_share_schemas(self):
        # LocalDatabase kept the DatabaseSchema it was given, so add_relation
        # in one session wrote into the spec and every session built after.
        spec = small_spec()
        first = Session.from_spec(spec)
        first.system.node("a").database.add_relation(RelationSchema("extra", ["k"]))
        second = Session.from_spec(spec).system.node("a").database
        assert "extra" not in spec.schemas["a"]
        assert "extra" not in second and "extra" not in second.schema
        assert "extra" in first.system.node("a").database.schema

    def test_from_topology_packages_dblp_workload(self):
        from repro.workloads.topologies import tree_topology

        topology = tree_topology(1, 2)
        spec = ScenarioSpec.from_topology(topology, records_per_node=3)
        assert spec.node_count == 3
        assert spec.super_peer == topology.nodes[0]
        assert len(spec.rules) > 0
        assert any(spec.data.values())


class TestStrategyRegistry:
    def test_four_paper_strategies_registered(self):
        assert set(available_strategies()) >= {
            "distributed",
            "centralized",
            "acyclic",
            "querytime",
        }

    def test_unknown_strategy_lists_available(self):
        with pytest.raises(ReproError, match="distributed"):
            get_strategy("does-not-exist")

    def test_unknown_option_rejected_per_strategy(self):
        session = Session.from_spec(small_spec())
        for name in ("distributed", "centralized", "acyclic", "querytime"):
            with pytest.raises(ReproError):
                session.update(name, bogus_option=1)


class TestEngines:
    def test_engine_for_matches_transport(self):
        assert isinstance(engine_for(SyncTransport()), SyncEngine)

    def test_sync_engine_rejects_a_process_transport(self):
        session = Session(small_spec().with_(transport="multiproc").build_system())
        with pytest.raises(ReproError):
            SyncEngine().run(session.system, "discovery")

    def test_unknown_phase_rejected(self):
        session = Session.from_spec(small_spec())
        with pytest.raises(ReproError, match="phase"):
            session.run("teleportation")


class TestRunResult:
    def test_uniform_result_for_all_registered_strategies(self):
        # The acceptance criterion: Session.from_spec(...).update(strategy=s)
        # returns a uniform RunResult for all four registered strategies.
        spec = ScenarioSpec.of(
            paper_example_schemas(),
            paper_example_rules(),
            paper_example_data(),
            super_peer="A",
        )
        for name in ("distributed", "centralized", "acyclic", "querytime"):
            session = Session.from_spec(spec)
            options = {"force": True} if name == "acyclic" else {}
            result = session.update(strategy=name, **options)
            assert isinstance(result, RunResult)
            assert result.phase == "update"
            assert result.strategy == name
            assert result.completion_time >= 0.0
            assert result.stats.total_messages >= 0
            assert isinstance(result.databases, dict)
            assert isinstance(result.deltas, Change)
            assert result.tuples_added > 0, name

    @pytest.mark.parametrize("name", ["centralized", "acyclic", "querytime"])
    def test_a_reference_strategy_simulates_on_the_side(self, name):
        # The live system is untouched, so a second call from the same state
        # computes the same fix-point and reports the same extras.
        session = Session.from_spec(
            ScenarioSpec.of(
                paper_example_schemas(),
                paper_example_rules(),
                paper_example_data(),
                super_peer="A",
            )
        )
        options = {"force": True} if name == "acyclic" else {}
        before = snapshot_of(session.system)
        first = session.update(name, **options)
        assert first.tuples_added > 0
        assert snapshot_of(session.system) == before
        second = session.update(name, **options)
        assert second.ground_databases() == first.ground_databases()
        assert second.extras == first.extras

    def test_the_distributed_strategy_writes_the_live_system(self):
        session = paper_session()
        session.run("discovery")
        before = snapshot_of(session.system)
        first = session.update()
        assert first.tuples_added > 0
        assert snapshot_of(session.system) != before
        assert session.system.databases() == first.databases
        assert session.update().tuples_added == 0

    def test_change_between_reports_only_new_rows(self):
        before = {"a": {"item": frozenset({("1",)})}}
        after = {"a": {"item": frozenset({("1",), ("2",)}), "other": frozenset()}}
        assert Change.between(before, after) == Change(
            inserts={"a": {"item": (("2",),)}}
        )

    def test_label_and_repr(self):
        session = Session.from_spec(small_spec())
        result = session.update("centralized")
        assert result.label == "update/centralized"
        assert "centralized" in repr(result)


REFERENCE_STRATEGIES = ["centralized", "acyclic", "querytime"]


def paper_session() -> Session:
    return Session.from_spec(
        ScenarioSpec.of(
            paper_example_schemas(),
            paper_example_rules(),
            paper_example_data(),
            super_peer="A",
        )
    )


def reference_update(session: Session, name: str) -> RunResult:
    # The paper example is cyclic; the acyclic baseline only runs forced.
    options = {"force": True} if name == "acyclic" else {}
    return session.update(name, **options)


class TestReferenceStrategiesReadTheLiveState:
    """Each reference update recomputes from the session's current state."""

    @pytest.mark.parametrize("name", REFERENCE_STRATEGIES)
    def test_a_fix_point_left_by_a_distributed_run_adds_nothing(self, name):
        session = paper_session()
        assert reference_update(session, name).tuples_added > 0
        session.run("discovery")
        session.update()
        after = reference_update(session, name)
        assert after.deltas.empty
        assert after.tuples_added == 0

    @pytest.mark.parametrize("name", REFERENCE_STRATEGIES)
    def test_a_direct_insert_is_seen_by_the_next_reference_update(self, name):
        session = paper_session()
        reference_update(session, name)
        session.system.node("E").database.relation("e").insert(("x9", "y9"))
        seen = reference_update(session, name).ground_databases()
        assert ("x9", "y9") in seen["E"]["e"]
        assert ("x9", "y9") in seen["B"]["b"]

    @pytest.mark.parametrize("name", REFERENCE_STRATEGIES)
    def test_an_added_rule_is_seen_by_the_next_reference_update(self, name):
        session = paper_session()
        before = reference_update(session, name)
        session.system.add_rule(
            rule_from_text("extra-link", "E: e(X, Y) -> B: b(Y, X)")
        )
        after = reference_update(session, name)
        assert after.tuples_added > before.tuples_added
        assert ("z", "t") in after.ground_databases()["B"]["b"]
        assert ("z", "t") not in before.ground_databases()["B"]["b"]

    @pytest.mark.parametrize("name", REFERENCE_STRATEGIES)
    def test_a_removed_rule_is_seen_by_the_next_reference_update(self, name):
        session = paper_session()
        before = reference_update(session, name)
        session.system.remove_rule("r1")
        after = reference_update(session, name)
        assert after.tuples_added < before.tuples_added
        assert ("s", "t") in before.ground_databases()["B"]["b"]
        assert ("s", "t") not in after.ground_databases()["B"]["b"]

    def test_querytime_fetches_the_closure_of_the_node_it_is_given(self):
        session = paper_session()
        at_a = session.update("querytime", node="A")
        # E imports from nobody, so its closure is E alone.
        at_e = session.update("querytime", node="E")
        assert at_a.extras["node"] == "A"
        assert at_e.extras["node"] == "E"
        assert at_a.extras["nodes_contacted"] == 4
        assert at_e.extras["nodes_contacted"] == 0
        assert at_e.deltas.empty
        assert session.update("querytime", node="A").extras == at_a.extras


class TestSystemSubstrate:
    def test_load_data_unknown_node_raises_repro_error(self):
        system = small_spec().build_system()
        with pytest.raises(ReproError, match="ghost"):
            system.load_data({"ghost": {"item": [("1", "2")]}})


class TestCliReachesStrategiesThroughE9:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "E3", "--strategy", "centralized"],
            ["run-all", "--strategy", "centralized"],
        ],
    )
    def test_the_strategy_flag_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert "--strategy" in capsys.readouterr().err

    def test_run_e9_compares_the_reference_strategies(self, capsys):
        assert main(["run", "E9", "--records", "3"]) == 0
        out = capsys.readouterr().out
        assert "query-time" in out and "centralized" in out
        assert "acyclic applicable" in out


class TestPythonDashM:
    def test_python_m_repro_list_works(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "E1" in result.stdout and "E10" in result.stdout
