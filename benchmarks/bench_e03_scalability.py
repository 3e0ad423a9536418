"""E3 — scalability with network size for trees, layered DAGs and cliques.

The paper ran up to 31 peers with ~1000 records each; the benchmark keeps the
31-node tree but reduces the per-node record count so a full run stays fast.
The shape that must hold: messages and time grow with the node count, every
run reaches the fix-point, and trees stay far cheaper than cliques of similar
size.

The engine extension goes past the paper's 31 nodes: the same update on
~127- and ~511-node topologies under sync and the one-OS-process-per-shard
multiproc engine, with per-shard and cross-shard message counts as the
record.
"""

import pytest

from repro.experiments.runner import run_dblp_update
from repro.experiments.scalability import run_shard_scalability
from repro.workloads.topologies import clique_topology, layered_topology, tree_topology

RECORDS = 25


@pytest.mark.parametrize("depth,expected_nodes", [(1, 3), (2, 7), (3, 15), (4, 31)])
def test_bench_tree_scalability(benchmark, depth, expected_nodes):
    """Global update on complete binary trees of 3, 7, 15 and 31 nodes."""
    def run():
        return run_dblp_update(
            tree_topology(depth, 2), records_per_node=RECORDS,
            label=f"tree/{expected_nodes}",
        )[1]

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(
        nodes=result.node_count,
        update_messages=result.update_messages,
        update_time=result.update_time,
        tuples_inserted=result.tuples_inserted,
    )
    assert result.node_count == expected_nodes
    assert result.all_closed


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_bench_layered_scalability(benchmark, depth):
    """Global update on layered acyclic graphs of growing depth (width 3)."""
    def run():
        return run_dblp_update(
            layered_topology(depth, width=3, seed=0),
            records_per_node=RECORDS,
            label=f"layered/{depth}",
        )[1]

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(
        nodes=result.node_count,
        update_messages=result.update_messages,
        update_time=result.update_time,
    )
    assert result.all_closed


@pytest.mark.parametrize(
    "size",
    [
        pytest.param(127, marks=pytest.mark.slow),
        pytest.param(511, marks=pytest.mark.slow),
    ],
)
def test_bench_engine_scalability(benchmark, size):
    """Sync vs multiproc update on topologies far past 31 nodes.

    The extended E3 sweep, one run per size: the same global update on a
    ~``size``-node tree and layered DAG under the single-queue sync engine
    and the one-OS-process-per-shard multiproc engine, with wall-clocks and
    shard traffic (per-shard and cross-shard deliveries) as the headline
    numbers.  Real traffic must cross the planner's cut (>0) while most
    deliveries stay local.
    """
    def run():
        return run_shard_scalability(
            sizes=(size,),
            shards=4,
            records_per_node=3,
            check_parity=True,
            engine="multiproc",
        )

    comparisons = benchmark.pedantic(run, rounds=1, iterations=1)
    tree = comparisons[0]
    benchmark.extra_info.update(
        nodes=tree.node_count,
        shards=tree.shards,
        sync_wall=round(tree.sync_wall, 3),
        multiproc_wall=round(tree.engine_wall, 3),
        sync_messages=tree.sync_messages,
        multiproc_messages=tree.engine_messages,
        messages_by_shard=tree.messages_by_shard,
        cross_shard_messages=tree.cross_shard_messages,
        cut_ratio=round(tree.cut_ratio, 4),
    )
    for comparison in comparisons:
        assert comparison.parity
        assert comparison.cross_shard_messages > 0
        assert comparison.cut_ratio < 0.5  # the planner keeps most traffic local


def test_bench_pooled_warm_update(benchmark):
    """Warm worker-pool repeat updates on a 63-node tree (2 shards).

    The first pooled run pays the same spawn + world-shipping price as a
    cold multiproc run (~a second); the benchmark measures the *warm*
    repeat runs, which ship only deltas over the persistent workers.  The
    recorded mean therefore tracks the per-run cost that remains after the
    fixed overhead is amortised — if someone reintroduces per-run spawning
    or world shipping, this number jumps by an order of magnitude and the
    regression gate catches it.
    """
    import time

    from repro.api.session import Session
    from repro.api.spec import ScenarioSpec

    spec = ScenarioSpec.from_topology(
        tree_topology(5, 2), records_per_node=3, seed=0
    ).with_(transport="pooled", shards=2)
    session = Session.from_spec(spec, capture_deltas=False)
    try:
        started = time.perf_counter()
        first = session.run("update")  # cold: spawns the pool
        cold_wall = time.perf_counter() - started
        assert first.engine == "pooled"

        warm_walls = []

        def warm_run():
            started = time.perf_counter()
            result = session.run("update")
            warm_walls.append(time.perf_counter() - started)
            return result

        result = benchmark.pedantic(warm_run, rounds=3, iterations=1)
        warm_mean = sum(warm_walls) / len(warm_walls)
        benchmark.extra_info.update(
            nodes=63,
            shards=2,
            cold_first_wall=round(cold_wall, 3),
            warm_mean_wall=round(warm_mean, 3),
        )
        assert result.engine == "pooled"
        # The amortisation claim itself: a warm run must be well under the
        # cold spawn+ship run (in practice ~10x; 2x keeps CI noise safe).
        assert warm_mean < cold_wall / 2
    finally:
        session.close()


@pytest.mark.slow
def test_bench_pooled_amortization_127(benchmark):
    """Repeat-run E3 sweep at ~127 nodes: warm pooled vs cold multiproc.

    Three update runs per engine on each 127-node topology.  Every cold
    multiproc run pays the spawn/ship overhead again; the pool pays it once,
    so its second-and-later runs must be measurably faster than the cold
    repeat mean — the acceptance bar of the persistent-pool subsystem.
    """
    def run():
        return run_shard_scalability(
            sizes=(127,),
            shards=4,
            records_per_node=3,
            check_parity=True,
            engine="pooled",
            repeats=3,
        )

    comparisons = benchmark.pedantic(run, rounds=1, iterations=1)
    tree = comparisons[0]
    benchmark.extra_info.update(
        nodes=tree.node_count,
        shards=tree.shards,
        multiproc_repeat_wall=round(tree.multiproc_repeat_wall, 3),
        pooled_first_wall=round(tree.pooled_first_wall, 3),
        pooled_warm_wall=round(tree.pooled_warm_wall, 3),
    )
    for comparison in comparisons:
        assert comparison.parity
        assert comparison.pooled_parity
        # Warm runs amortise the ~1-2 s fixed overhead away.
        assert comparison.pooled_warm_wall < comparison.multiproc_repeat_wall / 2


def test_bench_socket_warm_update(benchmark):
    """Warm socket-pool repeat updates on a 63-node tree (2 localhost hosts).

    The cross-machine twin of the pooled benchmark: the first run spawns two
    localhost ``repro.shardhost`` processes, connects, and ships the worlds;
    the measured warm repeats drive the same update over the live TCP
    connections, shipping only deltas.  The recorded mean is the per-run
    socket overhead (framing, coordinator routing, the ping barrier over
    TCP) on top of the protocol work — a re-ship or reconnect sneaking into
    the warm path jumps this number past the regression gate.
    """
    import time

    from repro.api.session import Session
    from repro.api.spec import ScenarioSpec

    spec = ScenarioSpec.from_topology(
        tree_topology(5, 2), records_per_node=3, seed=0
    ).with_(transport="socket", shards=2, pool=True)
    session = Session.from_spec(spec, capture_deltas=False)
    try:
        started = time.perf_counter()
        first = session.run("update")  # cold: spawns hosts, ships worlds
        cold_wall = time.perf_counter() - started
        assert first.engine == "socket-pooled"

        warm_walls = []

        def warm_run():
            started = time.perf_counter()
            result = session.run("update")
            warm_walls.append(time.perf_counter() - started)
            return result

        result = benchmark.pedantic(warm_run, rounds=3, iterations=1)
        warm_mean = sum(warm_walls) / len(warm_walls)
        benchmark.extra_info.update(
            nodes=63,
            shards=2,
            hosts=2,
            cold_first_wall=round(cold_wall, 3),
            warm_mean_wall=round(warm_mean, 3),
        )
        assert result.engine == "socket-pooled"
        # Warm runs must amortise the host spawn/connect/ship overhead away.
        assert warm_mean < cold_wall / 2
    finally:
        session.close()


@pytest.mark.parametrize("size", [3, 5, 7, 9])
def test_bench_clique_scalability(benchmark, size):
    """Global update on cliques of 3-9 nodes (the densest topology)."""
    def run():
        return run_dblp_update(
            clique_topology(size), records_per_node=max(5, RECORDS // size),
            label=f"clique/{size}",
        )[1]

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(
        nodes=result.node_count,
        update_messages=result.update_messages,
        update_time=result.update_time,
    )
    assert result.all_closed
