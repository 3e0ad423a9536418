"""Unit tests for the execution façade: builder, spec, registry, results."""

import subprocess
import sys

import pytest

from repro.api import (
    NetworkBuilder,
    RunResult,
    ScenarioSpec,
    Session,
    SyncEngine,
    available_strategies,
    engine_for,
    get_strategy,
    register_strategy,
)
from repro.cli import build_parser
from repro.coordination.changeset import Change
from repro.core.system import P2PSystem
from repro.database.schema import DatabaseSchema, RelationSchema
from repro.errors import ReproError
from repro.network.transport import SyncTransport
from repro.workloads.scenarios import (
    paper_example_data,
    paper_example_rules,
    paper_example_schemas,
)


def small_builder() -> NetworkBuilder:
    return (
        NetworkBuilder("unit")
        .node("a", RelationSchema("item", ["x", "y"]))
        .node("b", RelationSchema("item", ["x", "y"]))
        .rule("ab: b: item(X, Y) -> a: item(X, Y)")
        .data("b", "item", [("1", "2"), ("3", "4")])
        .super_peer("a")
    )


class TestNetworkBuilder:
    def test_builds_spec_with_all_parts(self):
        spec = small_builder().build()
        assert spec.name == "unit"
        assert spec.node_count == 2
        assert len(spec.rules) == 1
        assert spec.data["b"]["item"] == (("1", "2"), ("3", "4"))
        assert spec.super_peer == "a"

    def test_duplicate_node_rejected(self):
        builder = small_builder()
        with pytest.raises(ReproError):
            builder.node("a", RelationSchema("other", ["x"]))

    def test_empty_network_rejected(self):
        with pytest.raises(ReproError):
            NetworkBuilder().build()

    def test_bad_rule_text_rejected(self):
        with pytest.raises(ReproError):
            NetworkBuilder().node("a", RelationSchema("item", ["x"])).rule("nonsense")

    def test_session_runs_update(self):
        session = small_builder().session()
        session.run("discovery")
        result = session.update()
        deltas = result.deltas
        assert set(deltas.inserts["a"]["item"]) == {("1", "2"), ("3", "4")}
        assert not deltas.removes and not deltas.replaces


class TestScenarioSpec:
    def test_of_coerces_loose_parts(self):
        spec = ScenarioSpec.of(
            {"a": [RelationSchema("item", ["x"])], "b": RelationSchema("item", ["x"])},
            ["ab: b: item(X) -> a: item(X)"],
            {"b": {"item": [("1",)]}},
        )
        assert all(isinstance(s, DatabaseSchema) for s in spec.schemas.values())
        assert spec.rules[0].rule_id == "ab"

    def test_with_overrides_settings(self):
        spec = small_builder().build().with_(transport="pooled", strategy="centralized")
        assert spec.transport == "pooled"
        assert spec.strategy == "centralized"

    def test_build_system_assembles_p2psystem(self):
        system = small_builder().build().build_system()
        assert isinstance(system, P2PSystem)
        assert set(system.nodes) == {"a", "b"}

    def test_sessions_of_one_spec_do_not_share_schemas(self):
        # LocalDatabase kept the DatabaseSchema it was given, so add_relation
        # in one session wrote into the spec and every session built after.
        spec = small_builder().build()
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

    def test_duplicate_registration_needs_replace(self):
        strategy = get_strategy("centralized")
        with pytest.raises(ReproError):
            register_strategy(strategy)
        assert register_strategy(strategy, replace=True) is strategy

    def test_nameless_strategy_rejected(self):
        class Nameless:
            def run(self, session, **kwargs):  # pragma: no cover
                raise AssertionError

        with pytest.raises(ReproError):
            register_strategy(Nameless())

    def test_unknown_option_rejected_per_strategy(self):
        session = small_builder().session()
        for name in ("distributed", "centralized", "acyclic", "querytime"):
            with pytest.raises(ReproError):
                session.update(name, bogus_option=1)


class TestEngines:
    def test_engine_for_matches_transport(self):
        assert isinstance(engine_for(SyncTransport()), SyncEngine)

    def test_sync_engine_rejects_a_process_transport(self):
        session = Session.of(
            small_builder().build().with_(transport="multiproc").build_system()
        )
        with pytest.raises(ReproError):
            SyncEngine().run(session.system, "discovery")

    def test_unknown_phase_rejected(self):
        session = small_builder().session()
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

    def test_change_between_reports_only_new_rows(self):
        before = {"a": {"item": frozenset({("1",)})}}
        after = {"a": {"item": frozenset({("1",), ("2",)}), "other": frozenset()}}
        assert Change.between(before, after) == Change(
            inserts={"a": {"item": (("2",),)}}
        )

    def test_label_and_repr(self):
        session = small_builder().session()
        result = session.update("centralized")
        assert result.label == "update/centralized"
        assert "centralized" in repr(result)


class TestSystemSubstrate:
    def test_load_data_unknown_node_raises_repro_error(self):
        system = small_builder().build().build_system()
        with pytest.raises(ReproError, match="ghost"):
            system.load_data({"ghost": {"item": [("1", "2")]}})


class TestCliStrategyFlag:
    def test_strategy_flag_accepts_registered_names(self):
        args = build_parser().parse_args(["run", "E3", "--strategy", "centralized"])
        assert args.strategy == "centralized"

    def test_strategy_flag_defaults_to_distributed(self):
        args = build_parser().parse_args(["run", "E1"])
        assert args.strategy == "distributed"

    def test_unregistered_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "E3", "--strategy", "wishful"])


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
