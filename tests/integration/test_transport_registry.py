"""The transport registry's contract, one case per engine it builds.

Whatever :func:`repro.api.engine.transport_kinds` registers must build
through :class:`~repro.api.spec.ScenarioSpec`, get an engine named after a
row of the shared engine table (``tests/engines.py``, the names
``docs/engines.md`` documents) from :func:`~repro.api.engine.engine_for`,
drive the paper example to the ``sync`` ground fix-point, and leave nothing
behind after ``close()``.  A partitioned engine keeps one pool from its
first run until it closes; a run that fails drops the pool and the next run
spawns a fresh one.  A registry row whose engine the table lacks fails the
coverage check below, and a retired engine name is an unknown one.  The
socket row spawns its own hosts here, so their teardown is checked too.
"""

import json
import multiprocessing

import pytest

from repro.api import ScenarioSpec, Session
from repro.api.engine import engine_for, transport_kinds, transport_names
from repro.errors import NetworkError, ReproError
from repro.faults import FaultPlan, FaultSpec
from repro.workloads.scenarios import (
    paper_example_data,
    paper_example_rules,
    paper_example_schemas,
)
from engines import ENGINES, ONE_PER_ENGINE, PARTITIONED


def paper_spec(engine="sync", **settings):
    return ScenarioSpec.of(
        paper_example_schemas(),
        paper_example_rules(),
        paper_example_data(),
        super_peer="A",
        **{**ENGINES[engine], **settings},
    )


@pytest.fixture(scope="module")
def sync_fixpoint():
    with Session.from_spec(paper_spec()) as session:
        session.run("discovery")
        return session.update().ground_databases()


def record_pools(engine):
    """Every pool the engine brings up from now on."""
    pools = []
    spawn = engine._spawn_pool

    def recording(*args):
        pools.append(spawn(*args))
        return pools[-1]

    engine._spawn_pool = recording
    return pools


def assert_nothing_left(pools, host_processes=()):
    assert all(pool.closed for pool in pools)
    # Per channel: the worker process has exited / the host link is down.
    assert not any(channel.alive for pool in pools for channel in pool._channels)
    assert multiprocessing.active_children() == []
    assert all(process.poll() is not None for process in host_processes)


@pytest.mark.parametrize("engine", ONE_PER_ENGINE)
def test_builds_runs_to_the_sync_fixpoint_and_closes_clean(engine, sync_fixpoint):
    spec = paper_spec(engine)
    assert engine_for(spec.build_system().transport).name == engine
    session = Session.from_spec(spec)
    pools = record_pools(session.engine) if engine in PARTITIONED else []
    try:
        assert session.engine.name == engine
        session.run("discovery")
        assert session.update().ground_databases() == sync_fixpoint
        cluster = getattr(session.engine, "cluster", None)
        host_processes = list(cluster._processes) if cluster is not None else []
    finally:
        session.close()
    session.close()  # idempotent
    assert getattr(session.engine, "pool", None) is None
    assert_nothing_left(pools, host_processes)


@pytest.mark.parametrize("engine", PARTITIONED)
def test_a_warm_engine_keeps_one_pool_until_it_closes(engine, sync_fixpoint):
    with Session.from_spec(paper_spec(engine)) as session:
        pools = record_pools(session.engine)
        session.run("discovery")
        assert session.update().ground_databases() == sync_fixpoint
        session.update()
        assert len(pools) == 1 and session.engine.pool is pools[0]
        assert pools[0].alive
    assert_nothing_left(pools)


@pytest.mark.parametrize("engine", PARTITIONED)
def test_a_failed_run_drops_its_pool_and_the_next_run_spawns_one(
    engine, sync_fixpoint
):
    plan = FaultPlan(
        seed=0, faults=[FaultSpec(kind="kill_worker", phase="chase", run_index=0)]
    )
    with Session.from_spec(paper_spec(engine, faults=plan)) as session:
        pools = record_pools(session.engine)
        with pytest.raises(NetworkError):
            session.run("update")
        assert session.engine.pool is None
        assert_nothing_left(pools)
        session.run("discovery")
        assert session.update().ground_databases() == sync_fixpoint
        assert len(pools) == 2 and session.engine.pool is pools[1]
    assert_nothing_left(pools)


@pytest.mark.parametrize("source", ["spec", "file"])
@pytest.mark.parametrize("retired", ["multiproc", "socket-pooled"])
def test_a_retired_engine_name_is_an_unknown_transport_kind(retired, source):
    pooled = paper_spec("pooled")
    with pytest.raises(ReproError, match=f"unknown transport kind '{retired}'"):
        if source == "spec":
            pooled.with_(transport=retired)
        else:
            document = json.loads(pooled.dump_json())
            ScenarioSpec.load_json(json.dumps({**document, "transport": retired}))


def test_unknown_transport_name_lists_the_registered_ones():
    with pytest.raises(ReproError) as excinfo:
        paper_spec(transport="carrier-pigeon").build_system()
    for name in transport_names():
        assert name in str(excinfo.value)


def test_the_registry_is_sync_plus_the_process_engines():
    # One row of the table per registered name ("sync-seeded" is the
    # ``sync`` engine under another latency).
    assert tuple(transport_kinds()) == ("sync", "pooled", "socket") == ONE_PER_ENGINE


def test_shards_on_the_sync_transport_is_refused():
    # A shard count used to pick an in-process partitioned engine silently.
    with pytest.raises(ReproError, match="needs a partitioned transport"):
        paper_spec().with_(shards=2).build_system()
    with pytest.raises(ReproError, match="needs a partitioned transport"):
        Session.from_spec(paper_spec().with_(shards=2))


def test_a_pooled_spec_refuses_socket_only_settings():
    partition = FaultPlan(seed=0, faults=[FaultSpec(kind="partition")])
    pooled = paper_spec("pooled")
    with pytest.raises(ReproError, match="partition faults need transport='socket'"):
        pooled.with_(faults=partition).build_system()
    with pytest.raises(ReproError, match="hosts= needs transport='socket'"):
        pooled.with_(hosts=("h1:9101",)).build_system()
