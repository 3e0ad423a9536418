"""Partitioning peers across shards by cutting the coordination-rule graph.

The partitioned engines run one worker process per shard, so every
coordination-rule edge whose two endpoints live in different shards becomes
*cross-shard* traffic through the inter-shard mailboxes.  The planner's job is
to keep chatty neighbours co-located: it partitions the peers into K balanced
shards while greedily minimising the number of cut import edges — the same
locality argument that makes log-based reconciliation and incremental
integrity checking tractable when the workload is partitioned.

The algorithm is a deterministic greedy min-cut heuristic (exact balanced
min-cut is NP-hard):

1. peers are visited in BFS order over the undirected rule graph, starting
   from the highest-degree peer of each connected component, so neighbours
   are considered back-to-back;
2. each peer goes to the shard holding most of its already-placed neighbours
   (edge weights count parallel rules), subject to a balance cap of
   ``ceil(n / K)`` peers per shard;
3. a bounded refinement pass then moves single peers between shards whenever
   the move reduces the cut without breaking the balance cap.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from math import ceil
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.coordination.rule import CoordinationRule, NodeId
from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.core.system import P2PSystem
    from repro.workloads.topologies import TopologySpec

Edge = tuple[NodeId, NodeId]


@dataclass(frozen=True)
class ShardPlan:
    """An assignment of every peer to one of ``shard_count`` shards."""

    shard_count: int
    shard_of: Mapping[NodeId, int]
    edges: tuple[Edge, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        for node, shard in self.shard_of.items():
            if not 0 <= shard < self.shard_count:
                raise ReproError(
                    f"node {node!r} assigned to shard {shard} "
                    f"outside 0..{self.shard_count - 1}"
                )

    @property
    def nodes(self) -> tuple[NodeId, ...]:
        """All assigned peers, sorted."""
        return tuple(sorted(self.shard_of))

    def shard(self, node: NodeId) -> int:
        """The shard holding ``node``."""
        try:
            return self.shard_of[node]
        except KeyError:
            raise ReproError(
                f"node {node!r} is not covered by the shard plan"
            ) from None

    def members(self, shard: int) -> tuple[NodeId, ...]:
        """The peers of one shard, sorted."""
        return tuple(
            sorted(node for node, owner in self.shard_of.items() if owner == shard)
        )

    @property
    def shard_sizes(self) -> tuple[int, ...]:
        """Number of peers per shard."""
        sizes = [0] * self.shard_count
        for shard in self.shard_of.values():
            sizes[shard] += 1
        return tuple(sizes)

    def cut_edges(self, edges: Iterable[Edge] | None = None) -> tuple[Edge, ...]:
        """The edges whose endpoints live in different shards."""
        candidate = self.edges if edges is None else tuple(edges)
        return tuple(
            (a, b)
            for a, b in candidate
            if a in self.shard_of
            and b in self.shard_of
            and self.shard_of[a] != self.shard_of[b]
        )

    def cut_fraction(self, edges: Iterable[Edge] | None = None) -> float:
        """Cut edges as a fraction of all edges (0.0 when there are no edges)."""
        candidate = self.edges if edges is None else tuple(edges)
        if not candidate:
            return 0.0
        return len(self.cut_edges(candidate)) / len(candidate)

    def __repr__(self) -> str:
        sizes = "/".join(str(size) for size in self.shard_sizes)
        return (
            f"ShardPlan({self.shard_count} shards, sizes {sizes}, "
            f"{len(self.cut_edges())} cut edges)"
        )


class ShardPlanner:
    """Greedy balanced min-cut partitioning of peers into K shards."""

    def __init__(self, shard_count: int, *, refinement_passes: int = 2):
        if shard_count < 1:
            raise ReproError("a shard plan needs at least one shard")
        if refinement_passes < 0:
            raise ReproError("refinement_passes must be non-negative")
        self.shard_count = shard_count
        self.refinement_passes = refinement_passes

    # ------------------------------------------------------------ entry points

    def plan(self, nodes: Iterable[NodeId], edges: Iterable[Edge]) -> ShardPlan:
        """Partition ``nodes`` given undirected affinity ``edges``.

        Parallel edges (several rules between the same pair) count as extra
        affinity weight; self-loops and edges touching unknown nodes are
        ignored.
        """
        node_list = sorted(set(nodes))
        if not node_list:
            raise ReproError("cannot plan shards for an empty network")
        edge_list = tuple(edges)
        shard_count = min(self.shard_count, len(node_list))

        weights: dict[NodeId, dict[NodeId, int]] = defaultdict(lambda: defaultdict(int))
        known = set(node_list)
        for a, b in edge_list:
            if a == b or a not in known or b not in known:
                continue
            weights[a][b] += 1
            weights[b][a] += 1

        capacity = ceil(len(node_list) / shard_count)
        assignment = self._greedy_assign(node_list, weights, shard_count, capacity)
        for _ in range(self.refinement_passes):
            if not self._refine(node_list, weights, assignment, shard_count, capacity):
                break
        return ShardPlan(
            shard_count=shard_count, shard_of=dict(assignment), edges=edge_list
        )

    def plan_topology(self, spec: TopologySpec) -> ShardPlan:
        """Partition a :class:`~repro.workloads.topologies.TopologySpec`."""
        return self.plan(spec.nodes, spec.edges)

    def plan_rules(
        self, rules: Iterable[CoordinationRule], nodes: Iterable[NodeId] = ()
    ) -> ShardPlan:
        """Partition the nodes of a rule set along its dependency edges."""
        rules = list(rules)
        mentioned: set[NodeId] = set(nodes)
        edges: list[Edge] = []
        for rule in rules:
            mentioned.add(rule.target)
            mentioned.update(rule.sources)
            edges.extend(rule.dependency_edges)
        return self.plan(mentioned, edges)

    def plan_system(self, system: P2PSystem) -> ShardPlan:
        """Partition a live :class:`~repro.core.system.P2PSystem`."""
        return self.plan_rules(system.registry, system.nodes)

    # --------------------------------------------------------------- internals

    def _greedy_assign(
        self,
        node_list: list[NodeId],
        weights: Mapping[NodeId, Mapping[NodeId, int]],
        shard_count: int,
        capacity: int,
    ) -> dict[NodeId, int]:
        degree = {node: sum(weights.get(node, {}).values()) for node in node_list}
        assignment: dict[NodeId, int] = {}
        sizes = [0] * shard_count
        visited: set[NodeId] = set()

        # BFS component by component, heaviest peers first, so each peer is
        # placed right after the neighbours it talks to most.
        for seed in sorted(node_list, key=lambda n: (-degree[n], n)):
            if seed in visited:
                continue
            queue = deque([seed])
            visited.add(seed)
            while queue:
                node = queue.popleft()
                assignment[node] = self._best_shard(
                    node, weights, assignment, sizes, shard_count, capacity
                )
                sizes[assignment[node]] += 1
                for neighbour in sorted(
                    weights.get(node, {}), key=lambda n: (-weights[node][n], n)
                ):
                    if neighbour not in visited:
                        visited.add(neighbour)
                        queue.append(neighbour)
        return assignment

    @staticmethod
    def _best_shard(
        node: NodeId,
        weights: Mapping[NodeId, Mapping[NodeId, int]],
        assignment: Mapping[NodeId, int],
        sizes: list[int],
        shard_count: int,
        capacity: int,
    ) -> int:
        affinity = [0] * shard_count
        for neighbour, weight in weights.get(node, {}).items():
            owner = assignment.get(neighbour)
            if owner is not None:
                affinity[owner] += weight
        open_shards = [s for s in range(shard_count) if sizes[s] < capacity]
        if not open_shards:  # pragma: no cover - capacity covers all nodes
            open_shards = list(range(shard_count))
        # Most affinity wins; ties go to the emptiest shard so components
        # without edges spread out instead of piling into shard 0.
        return min(open_shards, key=lambda s: (-affinity[s], sizes[s], s))

    @staticmethod
    def _refine(
        node_list: list[NodeId],
        weights: Mapping[NodeId, Mapping[NodeId, int]],
        assignment: dict[NodeId, int],
        shard_count: int,
        capacity: int,
    ) -> bool:
        """One local-move sweep; returns True when any move improved the cut."""
        sizes = [0] * shard_count
        for shard in assignment.values():
            sizes[shard] += 1
        improved = False
        for node in node_list:
            current = assignment[node]
            affinity = [0] * shard_count
            for neighbour, weight in weights.get(node, {}).items():
                affinity[assignment[neighbour]] += weight
            best = current
            for shard in range(shard_count):
                if shard == current or sizes[shard] + 1 > capacity:
                    continue
                if affinity[shard] > affinity[best]:
                    best = shard
            if best != current:
                assignment[node] = best
                sizes[current] -= 1
                sizes[best] += 1
                improved = True
        return improved


def round_robin_plan(nodes: Iterable[NodeId], shard_count: int) -> ShardPlan:
    """A locality-blind baseline plan (node *i* → shard *i* mod K).

    Exists so tests and experiments can quantify how much cut traffic the
    greedy planner saves over not planning at all.
    """
    node_list = sorted(set(nodes))
    if not node_list:
        raise ReproError("cannot plan shards for an empty network")
    shard_count = min(shard_count, len(node_list))
    return ShardPlan(
        shard_count=shard_count,
        shard_of={node: i % shard_count for i, node in enumerate(node_list)},
    )
