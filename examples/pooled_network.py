"""A persistent worker pool: spawn shard processes once, update many times.

Builds the DBLP sharing workload on a 31-node tree over the pooled multiproc
engine (2 worker OS processes), then runs a sequence a long-lived service
would: a cold first update (which spawns the pool and ships the worlds),
warm repeat updates after new data arrives at a leaf (only the delta rows
are re-shipped), and a warm update after an addLink (the rule delta rides to
the same warm workers).  Wall-clocks show the spawn/ship overhead paid once
and amortised away; a sync session mirrors the sequence to confirm the
fix-point parity at every step.

Run:  PYTHONPATH=src python examples/pooled_network.py [repeats]
"""

import sys
import time

from repro import ScenarioSpec, Session
from repro.core.fixpoint import ground_part
from repro.coordination.rule import rule_from_text
from repro.workloads import tree_topology


def timed(label, action):
    started = time.perf_counter()
    result = action()
    print(f"  {label:34s} {time.perf_counter() - started:6.3f}s wall")
    return result


def main(repeats: int = 3) -> None:
    spec = ScenarioSpec.from_topology(tree_topology(4, 2), records_per_node=3, seed=0)
    sync_session = Session.from_spec(spec)
    leaf = sorted(spec.schemas)[-1]
    relation = sorted(spec.data[leaf])[0]
    arity = len(
        next(
            schema for schema in spec.schemas[leaf] if schema.name == relation
        ).attributes
    )
    rule = rule_from_text(
        "extra-import",
        f"{leaf}: {relation}({', '.join(f'V{i}' for i in range(arity))})"
        f" -> {sorted(spec.schemas)[0]}: "
        f"{relation}({', '.join(f'V{i}' for i in range(arity))})",
    )

    print(f"pooled engine over {spec.node_count} nodes, 2 worker processes:")
    with Session.from_spec(spec.with_(transport="pooled", shards=2)) as session:
        timed("cold first update (spawns pool)", lambda: session.run("update"))
        for round_index in range(repeats):
            rows = [
                tuple(f"round{round_index}-{i}-{k}" for k in range(arity))
                for i in range(2)
            ]
            session.system.load_data({leaf: {relation: rows}})
            sync_session.system.load_data({leaf: {relation: rows}})
            timed(
                f"warm update after {len(rows)} new rows",
                lambda: session.run("update"),
            )
        session.system.add_rule(rule)
        sync_session.system.add_rule(rule)
        timed("warm update after addLink", lambda: session.run("update"))

        sync_session.run("update")
        parity = ground_part(session.databases()) == ground_part(
            sync_session.databases()
        )
        pids = session.engine.pool.worker_pids
        print(f"worker pids stable across runs: {pids}")
        print(f"same ground fix-point as the sync engine: {parity}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 3)
