"""Unit tests for the execution façade: spec, sessions, results."""

import importlib
import json
import subprocess
import sys

import pytest

from repro.api import (
    ScenarioSpec,
    Session,
    SyncEngine,
    engine_for,
)
from repro.cli import build_parser, main
from repro.coordination.changeset import Change
from repro.core.system import P2PSystem
from repro.database.schema import DatabaseSchema, RelationSchema
from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
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


def paper_session() -> Session:
    return Session.from_spec(
        ScenarioSpec.of(
            paper_example_schemas(),
            paper_example_rules(),
            paper_example_data(),
            super_peer="A",
        )
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
        spec = small_spec().with_(transport="pooled", propagation="per_path")
        assert spec.transport == "pooled"
        assert spec.propagation == "per_path"

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


class TestEngines:
    def test_engine_for_matches_transport(self):
        assert isinstance(engine_for(SyncTransport()), SyncEngine)

    def test_sync_engine_rejects_a_process_transport(self):
        session = Session(small_spec().with_(transport="pooled").build_system())
        with pytest.raises(ReproError):
            SyncEngine().run(session.system, "discovery")

    def test_unknown_phase_rejected(self):
        session = Session.from_spec(small_spec())
        with pytest.raises(ReproError, match="phase"):
            session.run("teleportation")


class TestRunResult:
    def test_an_update_writes_the_live_system(self):
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

    def test_repr_shows_the_phase(self):
        session = Session.from_spec(small_spec())
        assert repr(session.update()).startswith("RunResult('update', engine='sync'")


class TestExportedMetrics:
    def test_the_runs_wall_time_is_a_counter(self):
        """A ``_total`` family is a counter: it only grows and it adds up
        when registries merge (a gauge would merge by maximum)."""
        session = Session.from_spec(small_spec())
        session.update()
        text = session.export_metrics("prometheus")
        assert "# TYPE repro_wall_seconds_total counter" in text
        types = dict(
            line.split()[2:4]
            for line in text.splitlines()
            if line.startswith("# TYPE ")
        )
        totals = {name: kind for name, kind in types.items() if name.endswith("_total")}
        assert set(totals.values()) == {"counter"}
        counters = {
            counter["name"]: counter["value"]
            for counter in json.loads(session.export_metrics("json"))["counters"]
        }
        wall = session.system.stats.elapsed_wall_seconds
        assert wall > 0
        assert counters["repro_wall_seconds_total"] == wall

    def test_the_runs_wall_time_adds_up_when_registries_merge(self):
        merged = MetricsRegistry()
        walls = []
        for _ in range(2):
            session = Session.from_spec(small_spec())
            session.update()
            walls.append(session.system.stats.elapsed_wall_seconds)
            merged.merge(session.metrics_registry().dump())
        total = merged.counter("repro_wall_seconds_total").value
        assert total == pytest.approx(sum(walls))
        assert total > max(walls)

    def test_the_simulated_clock_stays_a_gauge(self):
        session = Session.from_spec(small_spec())
        session.update()
        text = session.export_metrics("prometheus")
        assert "# TYPE repro_simulated_time_seconds gauge" in text


class TestRemovedModules:
    """The shadow control plane and the strategy table are gone; each name
    is listed with its replacement in docs/migration.md."""

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core.superpeer",
            "repro.network.pipe",
            "repro.network.advertisement",
            "repro.api.strategies",
        ],
    )
    def test_the_module_is_gone(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)


class TestSystemSubstrate:
    def test_load_data_unknown_node_raises_repro_error(self):
        system = small_spec().build_system()
        with pytest.raises(ReproError, match="ghost"):
            system.load_data({"ghost": {"item": [("1", "2")]}})


class TestCliReachesBaselinesThroughE9:
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

    def test_run_e9_compares_the_baselines(self, capsys):
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
