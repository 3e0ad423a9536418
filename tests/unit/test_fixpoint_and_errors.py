"""Unit tests for the fix-point verification helpers and the error hierarchy."""

import pytest

from repro import errors
from repro.api import ScenarioSpec, Session
from repro.core.fixpoint import (
    all_nodes_closed,
    ground_part,
    satisfies_all_rules,
    verify_against_centralized,
)
from repro.coordination.rule import rule_from_text
from repro.database.nulls import LabeledNull
from repro.database.schema import DatabaseSchema, RelationSchema


def item_schemas(*names):
    return {
        name: DatabaseSchema([RelationSchema("item", ["x", "y"])]) for name in names
    }


def chain():
    schemas = item_schemas("a", "b")
    rules = [rule_from_text("ab", "b: item(X, Y) -> a: item(X, Y)")]
    data = {"b": {"item": [("1", "2")]}}
    return schemas, rules, data


class TestGroundPart:
    def test_rows_with_nulls_are_dropped(self):
        snapshot = {
            "a": {
                "item": frozenset({("1", "2"), ("1", LabeledNull("n"))}),
            }
        }
        assert ground_part(snapshot) == {"a": {"item": frozenset({("1", "2")})}}

    def test_empty_snapshot(self):
        assert ground_part({}) == {}


class TestFixpointChecks:
    def test_fresh_system_is_not_at_fixpoint(self):
        schemas, rules, data = chain()
        system = ScenarioSpec.of(schemas, rules, data).build_system()
        assert not satisfies_all_rules(system)
        assert not all_nodes_closed(system)

    def test_updated_system_is_at_fixpoint(self):
        schemas, rules, data = chain()
        system = ScenarioSpec.of(schemas, rules, data).build_system()
        Session(system).run("update")
        assert satisfies_all_rules(system)
        assert all_nodes_closed(system)

    def test_satisfies_all_rules_does_not_mutate(self):
        schemas, rules, data = chain()
        system = ScenarioSpec.of(schemas, rules, data).build_system()
        before = system.databases()
        satisfies_all_rules(system)
        assert system.databases() == before

    def test_verification_report_flags_missing_data(self):
        schemas, rules, data = chain()
        system = ScenarioSpec.of(schemas, rules, data).build_system()
        # No update run: node a is missing the imported tuple.
        report = verify_against_centralized(system, schemas, rules, data)
        assert not report.ok
        assert not report.ground_equal
        assert ("1", "2") in report.missing["a"]["item"]
        assert report.extra == {}

    def test_verification_report_ok_after_update(self):
        schemas, rules, data = chain()
        system = ScenarioSpec.of(schemas, rules, data).build_system()
        Session(system).run("update")
        report = verify_against_centralized(system, schemas, rules, data)
        assert report.ok
        assert report.missing == {} and report.extra == {}

    def test_verification_report_flags_extra_data(self):
        schemas, rules, data = chain()
        system = ScenarioSpec.of(schemas, rules, data).build_system()
        Session(system).run("update")
        system.node("a").database.insert("item", ("99", "99"))
        report = verify_against_centralized(system, schemas, rules, data)
        assert not report.ground_equal
        assert ("99", "99") in report.extra["a"]["item"]


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.SchemaError,
            errors.QueryError,
            errors.RuleError,
            errors.NetworkError,
            errors.ProtocolError,
            errors.TerminationError,
            errors.ChangeError,
        ],
    )
    def test_all_errors_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)

    def test_pipe_and_peer_errors_are_network_errors(self):
        assert issubclass(errors.PipeClosedError, errors.NetworkError)
        assert issubclass(errors.UnknownPeerError, errors.NetworkError)

    def test_catching_the_base_class(self):
        with pytest.raises(errors.ReproError):
            raise errors.QueryError("boom")
