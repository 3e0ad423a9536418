"""The transport registry's contract, one case per registered name (× pool).

Whatever :func:`repro.api.engine.transport_kinds` registers must build
through :class:`~repro.api.spec.ScenarioSpec`, get an engine with the
documented name from :func:`~repro.api.engine.engine_for`, drive the paper
example to the ``sync`` ground fix-point, and leave nothing behind after
``close()`` — and a one-shot process engine must leave nothing behind as soon
as ``run`` returns, even when the run raised.  A new registry row without an
entry in :data:`DOCUMENTED_NAMES` fails the coverage check below.
"""

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

#: (transport name, pool flag) -> the ``engine.name`` docs/engines.md promises.
DOCUMENTED_NAMES = {
    ("sync", False): "sync",
    ("multiproc", False): "multiproc",
    ("multiproc", True): "pooled",
    ("pooled", False): "pooled",
    ("pooled", True): "pooled",
    ("socket", False): "socket",
    ("socket", True): "socket-pooled",
}

CASES = [
    (kind.name, pool)
    for kind in transport_kinds().values()
    for pool in ((False, True) if kind.partitioned else (False,))
]
ONE_SHOT = [
    case for case in CASES if DOCUMENTED_NAMES.get(case) in ("multiproc", "socket")
]


def paper_spec(transport="sync", pool=False, **settings):
    partitioned = transport in transport_names(partitioned=True)
    return ScenarioSpec.of(
        paper_example_schemas(),
        paper_example_rules(),
        paper_example_data(),
        super_peer="A",
        transport=transport,
        shards=2 if partitioned else None,
        pool=pool,
        **settings,
    )


@pytest.fixture(scope="module")
def sync_fixpoint():
    with Session.from_spec(paper_spec()) as session:
        session.run("discovery")
        return session.update().ground_databases()


def record_pools(engine):
    """Every pool the engine brings up from now on (one-shot ones included)."""
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


def test_every_registered_case_is_documented():
    assert sorted(CASES) == sorted(DOCUMENTED_NAMES)


@pytest.mark.parametrize("transport,pool", CASES)
def test_builds_runs_to_the_sync_fixpoint_and_closes_clean(
    transport, pool, sync_fixpoint
):
    spec = paper_spec(transport, pool)
    assert engine_for(spec.build_system().transport).name == (
        DOCUMENTED_NAMES[transport, pool]
    )
    session = Session.from_spec(spec)
    partitioned = transport in transport_names(partitioned=True)
    pools = record_pools(session.engine) if partitioned else []
    try:
        assert session.engine.name == DOCUMENTED_NAMES[transport, pool]
        session.run("discovery")
        assert session.update().ground_databases() == sync_fixpoint
        cluster = getattr(session.engine, "cluster", None)
        host_processes = list(cluster._processes) if cluster is not None else []
    finally:
        session.close()
    session.close()  # idempotent
    assert getattr(session.engine, "pool", None) is None
    assert_nothing_left(pools, host_processes)


@pytest.mark.parametrize("transport,pool", ONE_SHOT)
def test_one_shot_engines_hold_nothing_between_runs(transport, pool, sync_fixpoint):
    with Session.from_spec(paper_spec(transport, pool)) as session:
        pools = record_pools(session.engine)
        session.run("discovery")
        assert session.engine.pool is None
        assert_nothing_left(pools)
        assert session.update().ground_databases() == sync_fixpoint
        assert session.engine.pool is None
        assert len(pools) == 2  # one pool per run, each already gone
        assert_nothing_left(pools)


@pytest.mark.parametrize("transport,pool", ONE_SHOT)
def test_one_shot_engines_hold_nothing_after_a_failed_run(transport, pool):
    plan = FaultPlan(
        seed=0, faults=[FaultSpec(kind="kill_worker", phase="chase", run_index=0)]
    )
    with Session.from_spec(paper_spec(transport, pool, faults=plan)) as session:
        pools = record_pools(session.engine)
        with pytest.raises(NetworkError):
            session.run("update")
        assert session.engine.pool is None
        assert len(pools) == 1
        assert_nothing_left(pools)


def test_unknown_transport_name_lists_the_registered_ones():
    with pytest.raises(ReproError) as excinfo:
        paper_spec("carrier-pigeon").build_system()
    for name in transport_names():
        assert name in str(excinfo.value)


def test_the_registry_is_sync_plus_the_process_engines():
    assert tuple(transport_kinds()) == ("sync", "multiproc", "pooled", "socket")


def test_shards_on_the_sync_transport_is_refused():
    # A shard count used to pick an in-process partitioned engine silently.
    with pytest.raises(ReproError, match="needs a partitioned transport"):
        paper_spec().with_(shards=2).build_system()
    with pytest.raises(ReproError, match="needs a partitioned transport"):
        Session.from_spec(paper_spec().with_(shards=2))


def test_a_multiproc_spec_refuses_socket_only_settings():
    partition = FaultPlan(seed=0, faults=[FaultSpec(kind="partition")])
    multiproc = paper_spec().with_(transport="multiproc", shards=2)
    with pytest.raises(ReproError, match="partition faults need transport='socket'"):
        multiproc.with_(faults=partition).build_system()
    with pytest.raises(ReproError, match="hosts= needs transport='socket'"):
        multiproc.with_(hosts=("h1:9101",)).build_system()
