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
from repro.cli import build_parser
from repro.errors import NetworkError, ReproError
from repro.faults import FaultPlan, FaultSpec
from repro.sharding import ProcessTransport
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


def test_cli_engine_choices_come_from_the_registry():
    run_parser = build_parser()._subparsers._group_actions[0].choices["run"]
    engine_flag = next(
        action for action in run_parser._actions if "--engine" in action.option_strings
    )
    assert tuple(engine_flag.choices) == ("sync", *transport_names(partitioned=True))


def test_the_registry_is_sync_plus_the_process_engines():
    assert tuple(transport_kinds()) == ("sync", "multiproc", "pooled", "socket")


#: Removed transport name -> a word of the replacement its error must name.
RETIRED = {"async": "latency=", "sharded": "multiproc"}


@pytest.mark.parametrize("name", sorted(RETIRED))
def test_a_spec_naming_a_removed_transport_is_refused(name):
    with pytest.raises(ReproError, match=RETIRED[name]):
        paper_spec(name)
    with pytest.raises(ReproError, match=RETIRED[name]):
        paper_spec().with_(transport=name)


@pytest.mark.parametrize("name", sorted(RETIRED))
def test_a_spec_file_naming_a_removed_transport_is_refused(name):
    document = paper_spec().dump_json().replace('"sync"', f'"{name}"', 1)
    with pytest.raises(ReproError, match=RETIRED[name]):
        ScenarioSpec.load_json(document)


@pytest.mark.parametrize("name", sorted(RETIRED))
def test_building_a_removed_transport_is_refused(name):
    with pytest.raises(ReproError, match=RETIRED[name]):
        ScenarioSpec.of({"a": []}, transport=name).build_system()


def test_shards_on_the_sync_transport_is_refused():
    # A shard count used to pick an in-process partitioned engine silently.
    with pytest.raises(ReproError, match="needs a partitioned transport"):
        paper_spec().with_(shards=2).build_system()
    with pytest.raises(ReproError, match="needs a partitioned transport"):
        Session.from_spec(paper_spec().with_(shards=2))


def live_spec(**settings):
    """The paper example over a live two-shard multiproc transport instance."""
    return paper_spec().with_(transport=ProcessTransport("multiproc", 2), **settings)


def test_a_live_transport_is_judged_by_its_kind():
    kill = FaultPlan(seed=0, faults=[FaultSpec(kind="kill_worker")])
    assert live_spec(faults=kill).build_system().transport.kind == "multiproc"
    assert live_spec(shards=2).build_system().transport.shard_count == 2
    partition = FaultPlan(seed=0, faults=[FaultSpec(kind="partition")])
    with pytest.raises(ReproError, match="partition faults need transport='socket'"):
        live_spec(faults=partition).build_system()
    with pytest.raises(ReproError, match="shards=3 differs from the 2 shards"):
        live_spec(shards=3).build_system()
    with pytest.raises(ReproError, match="hosts= needs transport='socket'"):
        live_spec(hosts=("h1:9101",)).build_system()
