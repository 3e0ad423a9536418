"""Shared fixtures for the test-suite."""

from __future__ import annotations

import pytest

from repro.api.session import Session
from repro.api.spec import ScenarioSpec
from repro.coordination.rule import rule_from_text
from repro.database.schema import DatabaseSchema, RelationSchema
from repro.sharding.sockets import LocalHostCluster
from repro.workloads.scenarios import (
    build_paper_example,
    paper_example_data,
    paper_example_rules,
    paper_example_schemas,
)

from engines import ENGINES


@pytest.fixture(scope="session")
def shard_hosts():
    """Two real shard-host subprocesses shared by the whole test session."""
    with LocalHostCluster(2) as cluster:
        yield cluster


@pytest.fixture
def on_engine(request):
    """``on_engine(spec, label, **settings)``: ``spec`` on the ``ENGINES``
    row ``label`` (``settings`` override the row's).  A socket row runs on
    the session's shard hosts, which start when a test first asks."""

    def select(spec, label, **settings):
        row = {**ENGINES[label], **settings}
        if row.get("transport") == "socket":
            hosts = request.getfixturevalue("shard_hosts").addresses
            row["hosts"] = tuple(hosts)
        return spec.with_(**row)

    return select


@pytest.fixture
def paper_rules():
    """The seven rules of the Section 2 example."""
    return paper_example_rules()


@pytest.fixture
def paper_schemas():
    """The schemas of the Section 2 example."""
    return paper_example_schemas()


@pytest.fixture
def paper_data():
    """The initial data of the Section 2 example."""
    return paper_example_data()


@pytest.fixture
def paper_system():
    """A fresh, fully loaded Section 2 example system (synchronous transport)."""
    return build_paper_example()


@pytest.fixture
def updated_paper_system(paper_system):
    """The example system after discovery and a complete global update."""
    session = Session(paper_system)
    session.run("discovery", origins=["A"])
    session.run("update")
    return paper_system


@pytest.fixture
def chain_system():
    """A three-node chain a <- b <- c over a single binary relation ``item``.

    Data starts only at ``c``; after an update it must reach ``a`` through ``b``.
    """
    schemas = {
        name: DatabaseSchema([RelationSchema("item", ["x", "y"])])
        for name in ("a", "b", "c")
    }
    rules = [
        rule_from_text("ab", "b: item(X, Y) -> a: item(X, Y)"),
        rule_from_text("bc", "c: item(X, Y) -> b: item(X, Y)"),
    ]
    data = {"c": {"item": [("1", "2"), ("3", "4")]}}
    return ScenarioSpec.of(schemas, rules, data, super_peer="a").build_system()
