#!/usr/bin/env python3
"""Quickstart: a three-peer P2P database network in a few dozen lines.

Three research groups each keep a small relational database of projects.  The
coordination rules let the `portal` peer import every project of the two lab
peers; after the global update, queries at the portal are answered locally,
without contacting the labs again — the core promise of the paper.

The network is declared as one :class:`repro.ScenarioSpec` and driven through
the unified :class:`repro.Session` façade.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import RelationSchema, ScenarioSpec, Session


def main() -> None:
    # 1. Declare each peer's shared schema (the paper's DBS), the rules that
    #    translate between them, and the initial data, then open a session.
    #    Note the existential year in the lab_b rule: lab_b does not track
    #    years, so the portal stores a labelled null for it.
    spec = ScenarioSpec.of(
        {
            "lab_a": RelationSchema("project", ["name", "topic", "year"]),
            "lab_b": RelationSchema("effort", ["acronym", "area"]),
            "portal": RelationSchema("catalogue", ["name", "topic"]),
        },
        [
            "r_a: lab_a: project(N, T, Y) -> portal: catalogue(N, T)",
            "r_b: lab_b: effort(N, T) -> portal: catalogue(N, T)",
        ],
        {
            "lab_a": {
                "project": [
                    ("hyperion", "p2p databases", 2003),
                    ("piazza", "schema mediation", 2003),
                ]
            },
            "lab_b": {
                "effort": [
                    ("edutella", "rdf p2p"),
                    ("gridvine", "semantic overlay"),
                ]
            },
        },
        name="quickstart",
        super_peer="portal",
    )
    session = Session.from_spec(spec)

    # 2. Run topology discovery and the global update through the façade.
    discovery = session.run("discovery")
    update = session.update()

    # 3. Query the portal locally: every project is now available there.
    answers = session.query("portal", "q(N, T) :- catalogue(N, T)")

    print("discovery finished at simulated time", discovery.completion_time)
    print("update    finished at simulated time", update.completion_time)
    print("messages exchanged:", update.stats.total_messages)
    print("tuples imported:", update.tuples_added)
    print("portal catalogue (answered locally):")
    for name, topic in sorted(answers):
        print(f"  - {name}: {topic}")
    assert len(answers) == 4, "the portal should have imported all four projects"


if __name__ == "__main__":
    main()
