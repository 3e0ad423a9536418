"""Sharded execution: partition the network, run one worker per shard.

The paper's experiments stop at 31 peers; this subsystem is the scaling
layer that pushes the same protocols toward thousands.  The partition is
always the same — :class:`~repro.sharding.planner.ShardPlanner` greedily cuts
the coordination-rule import graph so chatty neighbours co-locate
(:class:`~repro.sharding.planner.ShardPlan` is the assignment,
:func:`~repro.sharding.planner.round_robin_plan` the locality-blind
baseline) — and the shards run in real workers: one loop, one pool, two
channels, one engine.

* :func:`~repro.sharding.worker.shard_worker_loop` is the one persistent
  shard-worker command loop, rebuilt from a picklable
  :class:`~repro.sharding.worker.ShardWorld`;
* :class:`~repro.sharding.pool.ShardPool` is the one coordinator-side
  driver (delta sync, the cumulative-counter quiescence barrier, collect,
  mirror bookkeeping), talking to shard *s* through a
  :class:`~repro.sharding.pool.Channel`;
* the two channels are :class:`~repro.sharding.pool.ProcessChannel`
  (a fork-server child and its queue — :class:`~repro.sharding.pool.WorkerPool`)
  and :class:`~repro.sharding.sockets.HostChannel` (a TCP link to a
  ``python -m repro.shardhost`` :class:`~repro.sharding.sockets.ShardHost`
  plus a shard id — :class:`~repro.sharding.sockets.SocketPool`, with
  :class:`~repro.sharding.sockets.LocalHostCluster` auto-spawning localhost
  hosts so tests and CI stay cluster-free);
* :class:`~repro.sharding.process.ProcessEngine` over a
  :class:`~repro.sharding.process.ProcessTransport` is the one engine:
  ``transport="multiproc"`` / ``"socket"`` close the pool after each run,
  ``"pooled"`` (or ``pool=True``) keeps it warm and re-ships only deltas.

See ``docs/architecture.md`` for where this layer sits in the system and
``docs/engines.md`` for when to pick which engine.
"""

from repro.sharding.planner import ShardPlan, ShardPlanner, round_robin_plan
from repro.sharding.pool import ShardPool, SyncDelta, WorkerPool, WorldMirror
from repro.sharding.process import ProcessEngine, ProcessTransport
from repro.sharding.sockets import LocalHostCluster, ShardHost, SocketPool

__all__ = [
    "LocalHostCluster",
    "ProcessEngine",
    "ProcessTransport",
    "ShardHost",
    "ShardPlan",
    "ShardPlanner",
    "ShardPool",
    "SocketPool",
    "SyncDelta",
    "WorkerPool",
    "WorldMirror",
    "round_robin_plan",
]
