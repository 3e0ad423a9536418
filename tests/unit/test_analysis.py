"""Unit tests for the static network analyzer (repro.analysis).

One positive and one negative fixture per diagnostic code, plus the report
API, the Session pre-flight gate, the check=True/check=False parity pin and
the ``lint`` CLI front end.  The code reference lives in docs/analysis.md.
"""

import time
from pathlib import Path

import pytest

from repro.analysis import (
    Severity,
    analyze,
    analyze_parts,
    build_position_graph,
    existential_cycles,
    is_weakly_acyclic,
)
from repro.api.session import Session
from repro.api.spec import ScenarioSpec
from repro.cli import lint_scenarios, main
from repro.coordination.rule import rule_from_text
from repro.database.schema import DatabaseSchema, RelationSchema
from repro.errors import ReproError
from repro.network.latency import UniformLatency
from repro.workloads.scenarios import (
    paper_example_data,
    paper_example_rules,
    paper_example_schemas,
)
from repro.workloads.topologies import clique_topology, single_relation_rules_for


def item_schemas(*names):
    return {
        name: DatabaseSchema([RelationSchema("item", ["x", "y"])]) for name in names
    }


def pathological_cycle_rules():
    """The rotated existential import cycle (>20 min fix-point at size 1)."""
    return [
        rule_from_text("ab", "b: item(X, Y) -> a: item(Y, Z)"),
        rule_from_text("ba", "a: item(X, Y) -> b: item(Y, Z)"),
    ]


def bounded_cycle_rules():
    """The keyed variant: existential cycle broken, chase provably stops."""
    return [
        rule_from_text("ab", "b: item(X, Y) -> a: item(X, Z)"),
        rule_from_text("ba", "a: item(X, Y) -> b: item(X, Z)"),
    ]


# --------------------------------------------------------- position graph


class TestPositionGraph:
    def test_regular_and_special_edges(self):
        graph = build_position_graph(
            [rule_from_text("r", "b: item(X, Y) -> a: item(X, Z)")]
        )
        regular = {
            (e.source, e.target) for e in graph.edges if not e.special
        }
        special = {(e.source, e.target) for e in graph.special_edges}
        assert regular == {(("b", "item", 0), ("a", "item", 0))}
        assert special == {(("b", "item", 0), ("a", "item", 1))}

    def test_no_edges_from_dropped_variables(self):
        # Y is read but never exported: no edge may originate at its position.
        graph = build_position_graph(
            [rule_from_text("r", "b: item(X, Y) -> a: item(X, X)")]
        )
        assert all(edge.source != ("b", "item", 1) for edge in graph.edges)

    def test_offending_edges_name_their_rules(self):
        offending = existential_cycles(pathological_cycle_rules())
        assert {edge.rule_id for edge in offending} == {"ab", "ba"}


class TestWeakAcyclicity:
    def test_pathological_cycle_is_rejected(self):
        assert not is_weakly_acyclic(pathological_cycle_rules())

    def test_bounded_cycle_is_accepted(self):
        assert is_weakly_acyclic(bounded_cycle_rules())

    def test_plain_copy_cycle_is_accepted(self):
        rules = [
            rule_from_text("ab", "b: item(X, Y) -> a: item(X, Y)"),
            rule_from_text("ba", "a: item(X, Y) -> b: item(X, Y)"),
        ]
        assert is_weakly_acyclic(rules)

    def test_self_feeding_existential_rule_is_rejected(self):
        # One rule whose invented null lands in the position it reads.
        rules = [rule_from_text("r", "b: item(X, Y) -> a: item(Z, X)")]
        rules += [rule_from_text("back", "a: item(X, Y) -> b: item(X, Y)")]
        assert not is_weakly_acyclic(rules)

    def test_classification_is_fast(self):
        started = time.perf_counter()
        for _ in range(50):
            assert not is_weakly_acyclic(pathological_cycle_rules())
        assert time.perf_counter() - started < 1.0


# ------------------------------------------------------------- diagnostics


class TestTerminationCodes:
    def test_t001_fires_on_existential_cycle(self):
        report = analyze_parts(item_schemas("a", "b"), pathological_cycle_rules())
        assert "T001" in report.codes(Severity.ERROR)
        assert not report.ok
        (diagnostic,) = [d for d in report if d.code == "T001"]
        assert "ab" in diagnostic.message and "ba" in diagnostic.message
        assert diagnostic.suggestion

    def test_t001_silent_on_bounded_cycle(self):
        report = analyze_parts(item_schemas("a", "b"), bounded_cycle_rules())
        assert "T001" not in report.codes()
        assert report.ok

    def test_t002_marks_plain_cycles_as_info(self):
        report = analyze_parts(item_schemas("a", "b"), bounded_cycle_rules())
        assert "T002" in report.codes(Severity.INFO)

    def test_t002_silent_on_acyclic_networks(self):
        rules = [rule_from_text("ab", "b: item(X, Y) -> a: item(X, Y)")]
        report = analyze_parts(item_schemas("a", "b"), rules)
        assert "T002" not in report.codes()


class TestSafetyCodes:
    def test_s001_fires_on_fully_existential_head(self):
        rules = [rule_from_text("r", "b: item(X, Y) -> a: item(U, V)")]
        report = analyze_parts(item_schemas("a", "b"), rules)
        assert "S001" in report.codes(Severity.WARNING)

    def test_s001_silent_when_any_head_variable_is_bound(self):
        rules = [rule_from_text("r", "b: item(X, Y) -> a: item(X, Z)")]
        report = analyze_parts(item_schemas("a", "b"), rules)
        assert "S001" not in report.codes()

    def test_s002_fires_on_duplicate_rule_ids(self):
        rules = [
            rule_from_text("dup", "b: item(X, Y) -> a: item(X, Y)"),
            rule_from_text("dup", "a: item(X, Y) -> b: item(X, Y)"),
        ]
        report = analyze_parts(item_schemas("a", "b"), rules)
        assert "S002" in report.codes(Severity.ERROR)

    def test_s002_silent_on_unique_rule_ids(self):
        rules = [
            rule_from_text("ab", "b: item(X, Y) -> a: item(X, Y)"),
            rule_from_text("ba", "a: item(X, Y) -> b: item(X, Y)"),
        ]
        report = analyze_parts(item_schemas("a", "b"), rules)
        assert "S002" not in report.codes()


class TestSchemaCodes:
    def test_c001_fires_on_undeclared_peer(self):
        rules = [rule_from_text("r", "ghost: item(X, Y) -> a: item(X, Y)")]
        report = analyze_parts(item_schemas("a"), rules)
        assert "C001" in report.codes(Severity.ERROR)

    def test_c001_silent_when_all_peers_declared(self):
        rules = [rule_from_text("r", "b: item(X, Y) -> a: item(X, Y)")]
        report = analyze_parts(item_schemas("a", "b"), rules)
        assert "C001" not in report.codes()

    def test_c002_fires_on_undeclared_head_relation(self):
        rules = [rule_from_text("r", "b: item(X, Y) -> a: mystery(X, Y)")]
        report = analyze_parts(item_schemas("a", "b"), rules)
        assert "C002" in report.codes(Severity.ERROR)

    def test_c003_fires_on_undeclared_body_relation(self):
        rules = [rule_from_text("r", "b: mystery(X, Y) -> a: item(X, Y)")]
        report = analyze_parts(item_schemas("a", "b"), rules)
        assert "C003" in report.codes(Severity.ERROR)

    def test_c002_c003_silent_on_declared_relations(self):
        rules = [rule_from_text("r", "b: item(X, Y) -> a: item(X, Y)")]
        report = analyze_parts(item_schemas("a", "b"), rules)
        assert "C002" not in report.codes()
        assert "C003" not in report.codes()

    def test_c004_fires_on_arity_mismatch(self):
        rules = [rule_from_text("r", "b: item(X, Y, W) -> a: item(X, Y)")]
        report = analyze_parts(item_schemas("a", "b"), rules)
        assert "C004" in report.codes(Severity.ERROR)

    def test_c004_silent_on_matching_arity(self):
        rules = [rule_from_text("r", "b: item(X, Y) -> a: item(X, Y)")]
        report = analyze_parts(item_schemas("a", "b"), rules)
        assert "C004" not in report.codes()

    def test_c005_fires_on_bad_initial_rows(self):
        report = analyze_parts(
            item_schemas("a"), [], {"a": {"item": [("1", "2", "3")]}}
        )
        assert "C005" in report.codes(Severity.ERROR)
        report = analyze_parts(
            item_schemas("a"), [], {"a": {"mystery": [("1",)]}}
        )
        assert "C005" in report.codes(Severity.ERROR)
        report = analyze_parts(item_schemas("a"), [], {"ghost": {"item": []}})
        assert "C005" in report.codes(Severity.ERROR)

    def test_c005_silent_on_well_shaped_rows(self):
        report = analyze_parts(item_schemas("a"), [], {"a": {"item": [("1", "2")]}})
        assert "C005" not in report.codes()


class TestReachabilityCodes:
    def test_r001_fires_on_forever_empty_body(self):
        rules = [rule_from_text("r", "b: item(X, Y) -> a: item(X, Y)")]
        report = analyze_parts(item_schemas("a", "b"), rules, {})
        assert "R001" in report.codes(Severity.WARNING)

    def test_r001_silent_when_a_mediator_is_fed(self):
        # b holds nothing but is the head of a rule importing from c.
        rules = [
            rule_from_text("ab", "b: item(X, Y) -> a: item(X, Y)"),
            rule_from_text("bc", "c: item(X, Y) -> b: item(X, Y)"),
        ]
        data = {"c": {"item": [("1", "2")]}}
        report = analyze_parts(item_schemas("a", "b", "c"), rules, data)
        assert "R001" not in report.codes()

    def test_r002_fires_on_isolated_peer(self):
        rules = [rule_from_text("r", "b: item(X, Y) -> a: item(X, Y)")]
        data = {"b": {"item": [("1", "2")]}, "lonely": {"item": [("9", "9")]}}
        report = analyze_parts(item_schemas("a", "b", "lonely"), rules, data)
        assert "R002" in report.codes(Severity.INFO)
        (diagnostic,) = [d for d in report if d.code == "R002"]
        assert diagnostic.node == "lonely"

    def test_r002_silent_when_every_peer_participates(self):
        rules = [rule_from_text("r", "b: item(X, Y) -> a: item(X, Y)")]
        data = {"b": {"item": [("1", "2")]}}
        report = analyze_parts(item_schemas("a", "b"), rules, data)
        assert "R002" not in report.codes()


class TestShardPlanCodes:
    def test_p001_fires_on_a_heavily_cut_clique(self):
        topology = clique_topology(6)
        rules = single_relation_rules_for(topology)
        schemas = item_schemas(*topology.nodes)
        data = {n: {"item": [("1", "2")]} for n in topology.nodes}
        report = analyze_parts(schemas, rules, data, shards=3)
        assert "P001" in report.codes(Severity.WARNING)

    def test_p001_silent_without_sharding_or_on_good_cuts(self):
        topology = clique_topology(6)
        rules = single_relation_rules_for(topology)
        schemas = item_schemas(*topology.nodes)
        data = {n: {"item": [("1", "2")]} for n in topology.nodes}
        assert "P001" not in analyze_parts(schemas, rules, data).codes()
        # Two disjoint chains over two shards cut nothing.
        rules = [
            rule_from_text("ab", "b: item(X, Y) -> a: item(X, Y)"),
            rule_from_text("cd", "d: item(X, Y) -> c: item(X, Y)"),
        ]
        schemas = item_schemas("a", "b", "c", "d")
        data = {n: {"item": [("1", "2")]} for n in "bd"}
        report = analyze_parts(schemas, rules, data, shards=2)
        assert "P001" not in report.codes()


# ------------------------------------------------------------ report API


class TestAnalysisReport:
    def test_errors_sort_before_warnings_and_infos(self):
        schemas = item_schemas("a", "b", "lonely")
        rules = pathological_cycle_rules()
        report = analyze_parts(schemas, rules, {})
        severities = [d.severity for d in report]
        assert severities == sorted(
            severities, key=[Severity.ERROR, Severity.WARNING, Severity.INFO].index
        )
        assert not report.ok
        assert not report.clean

    def test_render_mentions_every_code(self):
        report = analyze_parts(item_schemas("a", "b"), pathological_cycle_rules(), {})
        text = report.render()
        for code in report.codes():
            assert code in text

    def test_clean_report_renders_clean(self):
        rules = [rule_from_text("r", "b: item(X, Y) -> a: item(X, Y)")]
        data = {"b": {"item": [("1", "2")]}}
        report = analyze_parts(item_schemas("a", "b"), rules, data)
        assert report.clean and report.ok
        assert report.render().endswith("clean")

    def test_analyze_accepts_spec_json_text(self):
        spec = ScenarioSpec.of(
            item_schemas("a", "b"),
            ["r: b: item(X, Y) -> a: item(X, Y)"],
            {"b": {"item": [("1", "2")]}},
        )
        report = analyze(spec.dump_json())
        assert report.clean


# -------------------------------------------------------- session gating


def clean_spec(**settings):
    return ScenarioSpec.of(
        item_schemas("a", "b"),
        ["r: b: item(X, Y) -> a: item(X, Y)"],
        {"b": {"item": [("1", "2"), ("3", "4")]}},
        **settings,
    )


def pathological_spec(**settings):
    return ScenarioSpec.of(
        item_schemas("a", "b"),
        [
            "ab: b: item(X, Y) -> a: item(Y, Z)",
            "ba: a: item(X, Y) -> b: item(Y, Z)",
        ],
        {"a": {"item": [("x0", "x1")]}},
        **settings,
    )


class TestPreflightGate:
    def test_session_refuses_non_terminating_spec(self):
        with pytest.raises(ReproError, match="T001"):
            Session.from_spec(pathological_spec())

    def test_check_false_lets_the_spec_through(self):
        session = Session.from_spec(pathological_spec(), check=False)
        assert session.preflight is None

    def test_clean_spec_records_its_report(self):
        session = Session.from_spec(clean_spec())
        assert session.preflight is not None
        assert session.preflight.ok

    def test_warnings_ride_on_run_results(self):
        spec = ScenarioSpec.of(
            item_schemas("a", "b"),
            ["r: b: item(X, Y) -> a: item(X, Y)"],
            {},  # b never has data: R001 warning, but no error
        )
        session = Session.from_spec(spec)
        assert session.preflight is not None
        assert "R001" in session.preflight.codes(Severity.WARNING)
        result = session.update()
        assert result.extras["preflight_warnings"] == ("R001",)

    def test_preflight_parity_check_true_vs_false(self):
        # A spec passing pre-flight must produce identical results either way.
        results = []
        for check in (True, False):
            session = Session.from_spec(clean_spec(), check=check)
            results.append(session.update())
        checked, unchecked = results
        assert checked.databases == unchecked.databases
        assert checked.deltas == unchecked.deltas
        assert checked.tuples_added > 0 and checked.deltas.insert_only
        assert checked.completion_time == unchecked.completion_time
        assert checked.extras == unchecked.extras
        assert (
            checked.stats.total_messages == unchecked.stats.total_messages
        )

    def test_paper_example_passes_preflight(self):
        spec = ScenarioSpec.of(
            paper_example_schemas(),
            paper_example_rules(),
            paper_example_data(),
            super_peer="A",
        )
        assert analyze(spec).ok
        session = Session.from_spec(spec)
        assert session.preflight is not None and session.preflight.ok


# ------------------------------------------------------------- lint CLI


class TestLintCli:
    def test_lint_clean_scenario_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.json"
        clean_spec(name="clean").dump_json(path)
        assert main(["lint", str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_pathological_scenario_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        pathological_spec(name="bad").dump_json(path)
        assert main(["lint", str(path)]) == 1
        assert "T001" in capsys.readouterr().out

    def test_lint_strict_fails_on_warnings(self, tmp_path, capsys):
        path = tmp_path / "warn.json"
        ScenarioSpec.of(
            item_schemas("a", "b"),
            ["r: b: item(X, Y) -> a: item(X, Y)"],
            {},
            name="warn",
        ).dump_json(path)
        assert main(["lint", str(path)]) == 0
        assert main(["lint", "--strict", str(path)]) == 1
        assert "R001" in capsys.readouterr().out

    def test_lint_accepts_a_seeded_latency_scenario(self, tmp_path, capsys):
        path = tmp_path / "seeded.json"
        clean_spec(name="seeded", latency=UniformLatency(0, 1, seed=3)).dump_json(
            path
        )
        assert main(["lint", str(path)]) == 0
        assert "seeded" in capsys.readouterr().out

    def test_lint_names_the_replacement_of_a_removed_transport(
        self, tmp_path, capsys
    ):
        path = tmp_path / "retired.json"
        path.write_text(
            clean_spec().dump_json().replace('"sync"', '"async"', 1),
            encoding="utf-8",
        )
        assert main(["lint", str(path)]) == 1
        assert "latency=" in capsys.readouterr().err

    def test_the_shipped_example_scenarios_lint_clean_under_strict(self, capsys):
        examples = Path(__file__).resolve().parents[2] / "examples" / "scenarios"
        scenarios = sorted(str(path) for path in examples.glob("*.json"))
        assert len(scenarios) == 3
        assert lint_scenarios(scenarios, strict=True) == 0

    def test_lint_unreadable_file_fails_without_crashing(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["lint", str(missing)]) == 1
        assert "error" in capsys.readouterr().err
