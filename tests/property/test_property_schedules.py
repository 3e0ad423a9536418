"""Schedule independence: every delivery order reaches the same fix-point.

The paper's update algorithm assumes an asynchronous network, so the
fix-point it reaches must not depend on the order in which messages are
delivered.  The simulator makes that a checkable property: under a seeded
:class:`~repro.network.latency.UniformLatency` every seed is a different
legal schedule of the same network.  For 200 seeds per scenario — the
Section 2 example (discovery and update), a 7-clique and an existential
chain — every run must close every node, satisfy every rule and reach the
ground fix-point of the constant-latency run.  Message counts are *not*
compared: they vary with the schedule on the single-threaded simulator too.

A failing seed replays on its own, because a seeded draw depends only on the
seed and the system's own traffic:
``spec.with_(latency=UniformLatency(0, 1, seed)).dump_json(path)`` writes
that schedule as a spec file.
"""

import pytest

from repro.api import ScenarioSpec, Session
from repro.core.fixpoint import all_nodes_closed, ground_part, satisfies_all_rules
from repro.database.schema import RelationSchema
from repro.network.latency import UniformLatency
from repro.workloads.scenarios import (
    paper_example_data,
    paper_example_rules,
    paper_example_schemas,
)

SEEDS = range(200)


def paper_spec() -> ScenarioSpec:
    return ScenarioSpec.of(
        paper_example_schemas(),
        paper_example_rules(),
        paper_example_data(),
        super_peer="A",
    )


def clique_spec() -> ScenarioSpec:
    """Seven peers, each importing every other's ``item`` rows (42 rules,
    one row per peer): cyclic and dense, so each schedule takes many rounds."""
    nodes = [f"n{i}" for i in range(7)]
    return ScenarioSpec.of(
        {node: [RelationSchema("item", ["x", "y"])] for node in nodes},
        [
            f"{target}{source}: {source}: item(X, Y) -> {target}: item(X, Y)"
            for target in nodes
            for source in nodes
            if target != source
        ],
        {node: {"item": [(node, "1")]} for node in nodes},
    )


def existential_chain_spec() -> ScenarioSpec:
    """c → b invents an unknown organisation per author; b → a copies the
    invented rows along with b's own ground ones."""
    person = RelationSchema("person", ["name", "org"])
    return ScenarioSpec.of(
        {"a": [person], "b": [person], "c": [RelationSchema("author", ["name"])]},
        [
            "bc: c: author(X) -> b: person(X, O)",
            "ab: b: person(X, O) -> a: person(X, O)",
        ],
        {"b": {"person": [("cy", "uni")]}, "c": {"author": [("ada",), ("bob",)]}},
    )


SCENARIOS = {
    "paper": (paper_spec, True),
    "clique": (clique_spec, False),
    "existential-chain": (existential_chain_spec, False),
}


def _run(spec: ScenarioSpec, discovery: bool):
    """One schedule: (session, update result, maximal paths per node)."""
    session = Session.from_spec(spec, check=False)
    paths = None
    if discovery:
        session.run("discovery")
        paths = {
            node_id: node.state.maximal_paths()
            for node_id, node in session.system.nodes.items()
        }
    return session, session.update(), paths


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_every_schedule_reaches_one_fixpoint(scenario):
    build, discovery = SCENARIOS[scenario]
    spec = build()
    reference, _result, reference_paths = _run(spec, discovery)
    expected = ground_part(reference.databases())
    for seed in SEEDS:
        session, _result, paths = _run(
            spec.with_(latency=UniformLatency(0, 1, seed)), discovery
        )
        replay = f"{scenario}: seed {seed} of UniformLatency(0, 1, seed)"
        assert all_nodes_closed(session.system), replay
        assert satisfies_all_rules(session.system), replay
        assert ground_part(session.databases()) == expected, replay
        assert paths == reference_paths, replay


def test_a_seeded_schedule_replays_within_one_process():
    spec = paper_spec().with_(latency=UniformLatency(0, 1, seed=5))

    def observe():
        session = Session.from_spec(spec)
        session.run("discovery")
        result = session.update()
        return (
            result.stats.total_messages,
            result.completion_time,
            session.databases(),
        )

    first = observe()
    assert observe() == first
    # Unrelated traffic in between must not shift the schedule either.
    Session.from_spec(clique_spec()).update()
    assert observe() == first
