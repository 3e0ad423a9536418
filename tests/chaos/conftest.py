"""Shared scenario and baseline plumbing for the chaos suite.

Every chaos test follows the same shape: build one small scenario, compute
its fault-free synchronous fix-point once, then re-run the same scenario on
a real engine under a seeded :class:`~repro.faults.FaultPlan` and assert the
headline guarantee — the faulted run either converges *bit-identical* to the
baseline or raises a typed :class:`~repro.errors.ReproError` subclass.  It
never hangs (the repo-root stall guard turns a hang into a loud failure) and
never silently diverges.

The scenario is deliberately small (the 7-node binary tree on 2 shards) so
the whole matrix stays in CI budget; the seed comes from ``--chaos-seed`` so
a failing CI shard reproduces locally with the printed seed.
"""

import pytest

from repro.api import ScenarioSpec, Session
from repro.workloads.topologies import tree_topology


@pytest.fixture
def scenario(chaos_seed):
    """The 7-node tree scenario, seeded from --chaos-seed."""
    return ScenarioSpec.from_topology(
        tree_topology(2, 2), records_per_node=3, seed=chaos_seed
    )


@pytest.fixture
def sync_baseline(scenario):
    """The fault-free synchronous fix-point the faulted runs must match."""
    with Session.from_spec(scenario) as session:
        session.run("discovery")
        session.update()
        return session.system.databases()


@pytest.fixture
def faulted_run():
    """Run discovery + update on a spec; return (databases, metrics registry)."""

    def run(spec):
        with Session.from_spec(spec) as session:
            session.run("discovery")
            session.update()
            return session.system.databases(), session.system.stats.registry

    return run
