#!/usr/bin/env python3
"""The asynchronous communication model: one fix-point under every schedule.

The paper's algorithm "is based on an asynchronous model of communications",
so the fix-point a network reaches must not depend on the order in which
its messages are delivered.  The simulator explores that order: under a
seeded ``UniformLatency`` every seed is a different legal schedule.  This
example runs the paper example (discovery, then the update) under N seeded
schedules, prints each run's message count — which does vary with the
schedule — and checks that every run reaches the ground fix-point of the
constant-latency run.  Any seed replays on its own, from a spec file too:
``spec.with_(latency=UniformLatency(0, 1, seed)).dump_json("seed.json")``.

Run with::

    python examples/async_network.py [schedules]
"""

from __future__ import annotations

import sys

from repro import ScenarioSpec, Session, UniformLatency
from repro.core.fixpoint import ground_part
from repro.workloads.scenarios import (
    paper_example_data,
    paper_example_rules,
    paper_example_schemas,
)


def run(spec: ScenarioSpec):
    session = Session.from_spec(spec)
    session.run("discovery")
    update = session.update()
    return update.stats.total_messages, ground_part(session.databases())


def main(schedules: int = 10) -> None:
    spec = ScenarioSpec.of(
        paper_example_schemas(),
        paper_example_rules(),
        paper_example_data(),
        super_peer="A",
    )
    messages, reference = run(spec)
    print(f"constant latency: {messages} messages")
    same = True
    for seed in range(schedules):
        messages, fixpoint = run(spec.with_(latency=UniformLatency(0, 1, seed)))
        print(f"schedule seed {seed:3d}: {messages} messages")
        same = same and fixpoint == reference
    print(f"{schedules} schedules reach the same ground fix-point: {same}")
    assert same


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 10)
