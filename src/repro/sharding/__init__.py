"""Sharded execution: partition the network, run one worker per shard.

The paper's experiments stop at 31 peers; this subsystem is the scaling
layer that pushes the same protocols toward thousands.
:class:`~repro.sharding.planner.ShardPlanner` cuts the rule import graph so
chatty neighbours co-locate (:func:`~repro.sharding.planner.round_robin_plan`
is the locality-blind baseline), and the shards run in real workers:

* :class:`~repro.sharding.worker.ShardWorker` is the one shard worker, a
  state machine built from a picklable
  :class:`~repro.sharding.worker.ShardWorld` that does no I/O; thin drivers
  step it (a pool process, a shard host's one thread, the tests' in-memory
  driver);
* :class:`~repro.sharding.pool.ShardPool` is the one coordinator-side
  driver (delta sync, the cumulative-ledger quiescence barrier, one
  :class:`~repro.sharding.pool.Replies` source), talking to shard *s*
  through a :class:`~repro.sharding.pool.Channel`: a
  :class:`~repro.sharding.pool.ProcessChannel` (a fork-server child and our
  end of its pipe — :class:`~repro.sharding.pool.WorkerPool`) or a
  :class:`~repro.sharding.sockets.HostChannel` (a TCP link to a
  ``python -m repro.shardhost`` :class:`~repro.sharding.sockets.ShardHost`
  plus a shard id — :class:`~repro.sharding.sockets.SocketPool`;
  :class:`~repro.sharding.sockets.LocalHostCluster` spawns localhost hosts);
* :class:`~repro.sharding.process.ProcessEngine` is the one engine:
  ``transport="pooled"`` and ``"socket"`` both keep the pool warm until the
  session closes and re-ship only deltas.

See ``docs/architecture.md`` and ``docs/engines.md``.
"""

from repro.sharding.planner import ShardPlan, ShardPlanner, round_robin_plan
from repro.sharding.pool import ShardPool, WorkerPool
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
    "WorkerPool",
    "round_robin_plan",
]
