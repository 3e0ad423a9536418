"""Experiment E3 — scalability with respect to network size.

Section 5: "Up to 31 nodes participated to the preliminary experiments. [...]
about 20000 records about publications (about 1000 per node), organised in 3
different relational schemas. [...] Three types of topologies have been
considered: trees, layered acyclic graphs, and cliques."

This experiment sweeps the number of nodes for each topology family, runs
topology discovery followed by the global update, and reports execution time
(simulated), message counts and data volumes — the quantities the paper's
statistics module collected.  Record counts default to a laptop-friendly value
and can be raised to the paper's 1000 records/node via ``records_per_node``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.api.engine import transport_names
from repro.api.session import Session
from repro.api.spec import ScenarioSpec
from repro.errors import ReproError
from repro.obs import Tracer
from repro.experiments.runner import UpdateRunResult, run_dblp_update
from repro.stats.report import format_table
from repro.workloads.topologies import (
    TopologySpec,
    clique_topology,
    layered_topology,
    tree_topology,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import FaultPlan


def tree_specs(sizes: Sequence[int]) -> list[TopologySpec]:
    """Binary trees whose node counts are closest to the requested sizes.

    Sizes follow the usual complete-binary-tree counts 3, 7, 15, 31 — 31 nodes
    being the paper's maximum.
    """
    depth_for_size = {3: 1, 7: 2, 15: 3, 31: 4, 63: 5}
    specs = []
    for size in sizes:
        if size not in depth_for_size:
            raise ValueError(f"no complete binary tree with {size} nodes")
        specs.append(tree_topology(depth_for_size[size], fanout=2))
    return specs


def layered_specs(
    sizes: Sequence[int], width: int = 3, seed: int = 0
) -> list[TopologySpec]:
    """Layered acyclic graphs of the requested (approximate) sizes."""
    specs = []
    for size in sizes:
        depth = max(1, round(size / width) - 1)
        specs.append(layered_topology(depth, width=width, seed=seed))
    return specs


def clique_specs(sizes: Sequence[int]) -> list[TopologySpec]:
    """Cliques of the requested sizes."""
    return [clique_topology(size) for size in sizes]


def run_scalability(
    *,
    tree_sizes: Sequence[int] = (3, 7, 15, 31),
    layered_sizes: Sequence[int] = (6, 9, 12, 15),
    clique_sizes: Sequence[int] = (3, 5, 7, 9),
    records_per_node: int = 50,
    overlap_probability: float = 0.0,
    seed: int = 0,
) -> list[UpdateRunResult]:
    """Run the scalability sweep over all three topology families."""
    families = [
        ("tree", tree_specs(tree_sizes)),
        ("layered", layered_specs(layered_sizes, seed=seed)),
        ("clique", clique_specs(clique_sizes)),
    ]
    return [
        run_dblp_update(
            spec,
            records_per_node=records_per_node,
            overlap_probability=overlap_probability,
            seed=seed,
            label=f"{family}/n={spec.node_count}",
        )[1]
        for family, specs in families
        for spec in specs
    ]


# ----------------------------------------------------- the engine extension
#
# The paper stopped at 31 peers; the partitioned engines push the same update
# protocol to hundreds or thousands.  This sweep compares the single-queue
# SyncEngine with one partitioned engine — one OS process per shard
# (multiproc), optionally against a warm worker pool (pooled), or workers on
# TCP shard hosts (socket).  Topology discovery is skipped at these sizes
# (the update phase does not depend on it, and maximal-path enumeration on
# dense layered graphs is exactly the blow-up the paper's complexity section
# predicts).


@dataclass(frozen=True)
class ShardComparison:
    """One topology run under sync and under one partitioned engine.

    ``engine`` names the partitioned engine of the ``engine_*`` and traffic
    columns (``"multiproc"`` or ``"socket"``).  The pooled columns are filled
    only for the repeat-run sweep (``engine="pooled"`` /
    ``run E3 --engine pooled``), where ``multiproc_repeat_wall`` is the mean
    wall-clock of *cold* multiproc runs (spawn + world ship every time) and
    ``pooled_warm_wall`` the mean of the warm pool's second-and-later runs —
    their gap is the amortised fixed overhead.
    """

    label: str
    node_count: int
    shards: int
    sync_time: float
    sync_wall: float
    sync_messages: int
    engine: str
    engine_time: float
    engine_wall: float
    engine_messages: int
    cross_shard_messages: int
    cut_ratio: float
    messages_by_shard: dict[int, int]
    parity: bool
    multiproc_repeat_wall: float | None = None
    pooled_first_wall: float | None = None
    pooled_warm_wall: float | None = None
    pooled_parity: bool | None = None

    @property
    def per_shard_column(self) -> str:
        """Per-shard delivery counts rendered ``a/b/c/d`` in shard order."""
        return "/".join(
            str(count) for _shard, count in sorted(self.messages_by_shard.items())
        )


def shard_sweep_specs(
    sizes: Sequence[int] = (127, 511),
    *,
    max_imports: int = 2,
    seed: int = 0,
) -> list[TopologySpec]:
    """Large topologies for the engine sweep: one tree + one layered DAG per size.

    Trees are the complete binary trees closest to each requested size.
    Layered DAGs take a wide-and-shallow shape (depth ≈ log2(size), width
    sized to match) with each node's fan-in capped at ``max_imports`` —
    uncapped layered graphs are quadratic in the width and the per-layer
    re-propagation makes the message count explode long before 500 nodes.
    """
    specs: list[TopologySpec] = []
    for size in sizes:
        depth = max(1, (size + 1).bit_length() - 2)
        specs.append(tree_topology(depth, fanout=2))
    for size in sizes:
        depth = max(2, size.bit_length() - 1)
        width = max(2, round(size / (depth + 1)))
        specs.append(
            layered_topology(depth, width=width, seed=seed, max_imports=max_imports)
        )
    return specs


def run_shard_scalability(
    *,
    sizes: Sequence[int] = (127, 511),
    shards: int = 4,
    records_per_node: int = 3,
    max_imports: int = 2,
    seed: int = 0,
    check_parity: bool = True,
    engine: str = "multiproc",
    hosts: Sequence[str] | None = None,
    repeats: int = 3,
    tracer: Tracer | None = None,
    faults: "FaultPlan | None" = None,
) -> list[ShardComparison]:
    """Run the global update under sync and one partitioned engine side by side.

    Reports, per topology: simulated completion time and wall-clock for each
    engine, per-shard delivery counts, and the cross-shard (cut) traffic the
    planner could not avoid.  ``check_parity`` additionally compares the
    final ground states (the Lemma 1 guarantee, now at scale).  ``engine``
    is ``"multiproc"`` (one cold
    :class:`~repro.sharding.process.ProcessEngine` run, one OS process per
    shard), ``"socket"`` (the same engine over TCP shard hosts — the
    ``hosts`` addresses when given, else auto-spawned localhost hosts) or
    ``"pooled"``: the multiproc run plus a *repeat-run* comparison —
    ``repeats`` update runs on the cold multiproc session (each paying spawn
    + world shipping) against the same runs on one warm
    :class:`~repro.sharding.pool.WorkerPool` session (spawn once, deltas
    only), which is where the pool's amortisation shows.  ``tracer``
    (usually built by :func:`shard_main` for ``--trace``) is shared across
    every session of the sweep, so all engines' runs land in one timeline —
    worker-process spans included.  ``faults`` (the CLI's
    ``--faults plan.json``) injects the same seeded
    :class:`~repro.faults.FaultPlan` into every partitioned-engine session
    of the sweep — the sync baseline stays fault-free, so the parity columns
    double as the convergence check.
    """
    from repro.core.fixpoint import ground_part

    if engine not in transport_names(partitioned=True):
        raise ReproError(
            f"unknown sweep engine {engine!r}; expected one of "
            f"{transport_names(partitioned=True)}"
        )
    if engine == "pooled" and repeats < 2:
        raise ReproError("the pooled repeat-run sweep needs repeats >= 2")
    transport = "socket" if engine == "socket" else "multiproc"
    comparisons: list[ShardComparison] = []
    for spec in shard_sweep_specs(sizes, max_imports=max_imports, seed=seed):
        scenario = ScenarioSpec.from_topology(
            spec, records_per_node=records_per_node, seed=seed
        )
        label = f"{spec.name}/n={spec.node_count}"

        started = time.perf_counter()
        sync_session = Session.from_spec(scenario, tracer=tracer)
        sync_result = sync_session.run("update")
        sync_wall = time.perf_counter() - started

        started = time.perf_counter()
        partitioned_session = Session.from_spec(
            scenario.with_(
                transport=transport,
                shards=shards,
                hosts=tuple(hosts) if hosts and transport == "socket" else None,
                faults=faults,
            ),
            tracer=tracer,
        )
        with partitioned_session:
            result = partitioned_session.run("update")
            wall = time.perf_counter() - started
            traffic = result.stats.sharding
            assert traffic is not None  # the partitioned engines always attach it
            sync_ground = (
                ground_part(sync_session.databases()) if check_parity else None
            )
            parity = not check_parity or sync_ground == ground_part(
                partitioned_session.databases()
            )

            pooled_columns: dict = {}
            if engine == "pooled":
                # Cold repeats: every further run on the plain multiproc
                # session respawns workers and re-ships the worlds.
                cold_walls = [wall]
                for _ in range(repeats - 1):
                    started = time.perf_counter()
                    partitioned_session.run("update")
                    cold_walls.append(time.perf_counter() - started)
                with Session.from_spec(
                    scenario.with_(transport="pooled", shards=shards, faults=faults),
                    tracer=tracer,
                ) as pooled_session:
                    started = time.perf_counter()
                    pooled_session.run("update")
                    pooled_first = time.perf_counter() - started
                    warm_walls = []
                    for _ in range(repeats - 1):
                        started = time.perf_counter()
                        pooled_session.run("update")
                        warm_walls.append(time.perf_counter() - started)
                    pooled_parity = not check_parity or sync_ground == ground_part(
                        pooled_session.databases()
                    )
                pooled_columns = dict(
                    multiproc_repeat_wall=sum(cold_walls) / len(cold_walls),
                    pooled_first_wall=pooled_first,
                    pooled_warm_wall=sum(warm_walls) / len(warm_walls),
                    pooled_parity=pooled_parity,
                )

        comparisons.append(
            ShardComparison(
                label=label,
                node_count=spec.node_count,
                shards=traffic.shard_count,
                sync_time=sync_result.completion_time,
                sync_wall=sync_wall,
                sync_messages=sync_result.stats.total_messages,
                engine=transport,
                engine_time=result.completion_time,
                engine_wall=wall,
                engine_messages=result.stats.total_messages,
                cross_shard_messages=traffic.cross_shard_messages,
                cut_ratio=traffic.cut_ratio,
                messages_by_shard=dict(traffic.messages_by_shard),
                parity=parity,
                **pooled_columns,
            )
        )
    return comparisons


def shard_main(
    records_per_node: int = 3,
    shards: int = 4,
    sizes: Sequence[int] = (127, 511),
    engine: str = "multiproc",
    repeats: int = 3,
    hosts: Sequence[str] | None = None,
    trace_path: str | None = None,
    faults: "FaultPlan | None" = None,
) -> str:
    """Print the engine-comparison sweep table.

    ``run E3 --engine multiproc`` compares sync against the
    one-process-per-shard engine; ``run E3 --engine pooled`` additionally
    re-runs the update ``repeats`` times on the cold multiproc session and on
    a warm worker pool, so the amortised spawn/ship overhead is visible as
    the gap between the ``mp repeat wall`` and ``pool warm wall`` columns;
    ``run E3 --engine socket`` compares against the TCP shard-host engine
    instead, dialing ``--hosts`` when given and auto-spawned localhost hosts
    otherwise.  ``trace_path`` (the CLI's ``--trace out.json``) traces every
    run of the sweep into one timeline, writes it as Chrome trace-event JSON
    (open it at https://ui.perfetto.dev) and appends the per-phase summary
    table to the output.
    """
    tracer = Tracer(process="coordinator") if trace_path else None
    comparisons = run_shard_scalability(
        sizes=sizes,
        shards=shards,
        records_per_node=records_per_node,
        engine=engine,
        hosts=hosts,
        repeats=repeats,
        tracer=tracer,
        faults=faults,
    )
    partitioned = "socket" if engine == "socket" else "multiproc"
    headers = [
        "topology",
        "nodes",
        "sync time",
        "sync wall s",
        "sync msgs",
        f"{partitioned} time",
        f"{partitioned} wall s",
        "msgs/shard",
        "cross-shard",
        "cut ratio",
        "parity",
    ]
    if engine == "pooled":
        headers += [
            "mp repeat wall s",
            "pool first wall s",
            "pool warm wall s",
            "pool parity",
        ]
    rows = []
    for c in comparisons:
        row = [
            c.label,
            c.node_count,
            c.sync_time,
            f"{c.sync_wall:.2f}",
            c.sync_messages,
            c.engine_time,
            f"{c.engine_wall:.2f}",
            c.per_shard_column,
            c.cross_shard_messages,
            f"{c.cut_ratio:.3f}",
            c.parity,
        ]
        if engine == "pooled":
            row += [
                f"{c.multiproc_repeat_wall:.2f}",
                f"{c.pooled_first_wall:.2f}",
                f"{c.pooled_warm_wall:.3f}",
                c.pooled_parity,
            ]
        rows.append(row)
    engines = f"sync vs {partitioned}"
    if engine == "pooled":
        engines += " vs pooled"
    title = (
        f"E3 — {engines} update ({shards} shards, "
        f"{records_per_node} records/node, discovery skipped"
    )
    if engine == "pooled":
        title += f", {repeats} repeat runs"
    table = format_table(headers, rows, title=title + ")")
    print(table)
    if tracer is not None and trace_path is not None:
        from repro.obs.export import (
            chrome_trace_summary,
            format_trace_summary,
            trace_to_chrome,
            write_chrome_trace,
        )

        document = trace_to_chrome(tracer.trace())
        written = write_chrome_trace(tracer.trace(), trace_path)
        summary = format_trace_summary(chrome_trace_summary(document))
        print(f"\ntrace written to {written} (open at https://ui.perfetto.dev)")
        print(summary)
        table = table + "\n" + summary
    return table


def main(records_per_node: int = 50) -> str:
    """Print the scalability table (one row per topology/size)."""
    results = run_scalability(records_per_node=records_per_node)
    rows = [result.as_row() for result in results]
    table = format_table(
        [
            "topology",
            "nodes",
            "depth",
            "discovery msgs",
            "update msgs",
            "update time",
            "tuples inserted",
            "closed",
        ],
        rows,
        title=f"E3 — scalability sweep ({records_per_node} records/node)",
    )
    print(table)
    return table


if __name__ == "__main__":  # pragma: no cover
    main()
