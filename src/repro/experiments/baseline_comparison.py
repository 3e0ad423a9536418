"""Experiment E9 — materialised update versus the alternatives.

The introduction positions the update algorithm against two alternatives:

* answering queries *at query time*, fetching distributed data on every query
  ("requiring the participation of all nodes at query time"),
* the *global* algorithm of the related work, which assumes a central node
  performing all the computation.

Since the façade refactor all four contenders run through the same
:class:`repro.api.Session` API — the distributed update on the live system,
and the ``centralized`` / ``acyclic`` / ``querytime`` strategies from a fresh
session over the same :class:`~repro.api.ScenarioSpec` — and return the same
:class:`~repro.api.RunResult`, so the comparison is a straight read-off of
uniform fields.  The experiment reports, for a batch of user queries issued
at the super-peer:

* messages paid by the distributed update (once) and per subsequent query
  (zero — queries are answered locally),
* messages paid by query-time answering for every query in the batch,
* the centralized baseline's cost model (no messages, but every database must
  be shipped to / accessible from one site — reported as tuples that would
  need to be centralised),
* whether the acyclic single-pass strategy applies and, where it does, whether
  it reaches the same fix-point (it fails on cyclic networks — precisely the
  limitation the paper's algorithm removes).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.session import Session
from repro.api.spec import ScenarioSpec
from repro.errors import ReproError
from repro.stats.report import format_table
from repro.workloads.topologies import TopologySpec, clique_topology, tree_topology


@dataclass(frozen=True)
class BaselineComparison:
    """Costs of the competing strategies on one topology."""

    topology: str
    node_count: int
    update_messages: int
    update_time: float
    querytime_messages_per_query: int
    queries_in_batch: int
    querytime_messages_total: int
    centralized_tuples_to_ship: int
    acyclic_applicable: bool
    acyclic_matches: bool
    answers_agree: bool

    @property
    def breakeven_queries(self) -> float:
        """Number of queries after which materialisation is cheaper."""
        if self.querytime_messages_per_query == 0:
            return float("inf")
        return self.update_messages / self.querytime_messages_per_query


def _query_for_variant(variant: str) -> str:
    if variant == "wide":
        return "q(K) :- pub(K, T, A, Y, V)"
    if variant == "split":
        return "q(K) :- article(K, T, Y, V)"
    return "q(K) :- work(K, T)"


def run_baseline_comparison(
    spec: TopologySpec,
    *,
    records_per_node: int = 20,
    queries_in_batch: int = 10,
    seed: int = 0,
) -> BaselineComparison:
    """Compare the distributed update with query-time and centralized answering."""
    scenario = ScenarioSpec.from_topology(
        spec, records_per_node=records_per_node, seed=seed, max_messages=2_000_000
    )
    query_node = spec.nodes[0]
    query_text = _query_for_variant(spec.variant_of(query_node))

    # The paper's algorithm on the live system: pay messages once, then
    # answer every subsequent query locally.
    session = Session.from_spec(scenario)
    discovery = session.run("discovery")
    distributed = session.update()
    update_messages = distributed.stats.total_messages - discovery.stats.total_messages
    update_time = distributed.completion_time - discovery.completion_time
    local_answers = session.query(query_node, query_text)

    # The reference strategies from a fresh session over the same spec (they
    # read the initial state and do not mutate it, so one session serves all).
    reference = Session.from_spec(scenario)
    central = reference.update("centralized", node=query_node, query=query_text)
    query_time = reference.update("querytime", node=query_node, query=query_text)

    central_answers = set(central.extras["answers"])
    querytime_answers = query_time.extras["answers"]
    querytime_messages = int(query_time.extras["messages"])

    try:
        acyclic = reference.update("acyclic")
        acyclic_applicable = True
        acyclic_matches = acyclic.ground_databases() == central.ground_databases()
    except ReproError:
        acyclic_applicable = False
        acyclic_matches = False

    return BaselineComparison(
        topology=spec.name,
        node_count=spec.node_count,
        update_messages=update_messages,
        update_time=update_time,
        querytime_messages_per_query=querytime_messages,
        queries_in_batch=queries_in_batch,
        querytime_messages_total=querytime_messages * queries_in_batch,
        centralized_tuples_to_ship=scenario.total_rows,
        acyclic_applicable=acyclic_applicable,
        acyclic_matches=acyclic_matches,
        answers_agree=(local_answers == set(querytime_answers) == central_answers),
    )


def run_all(
    *, records_per_node: int = 20, queries_in_batch: int = 10, seed: int = 0
) -> list[BaselineComparison]:
    """Run the comparison on a tree (acyclic) and a clique (cyclic)."""
    return [
        run_baseline_comparison(
            tree_topology(3, 2),
            records_per_node=records_per_node,
            queries_in_batch=queries_in_batch,
            seed=seed,
        ),
        run_baseline_comparison(
            clique_topology(5),
            records_per_node=records_per_node,
            queries_in_batch=queries_in_batch,
            seed=seed,
        ),
    ]


def main() -> str:
    """Print the update vs query-time vs centralized comparison."""
    comparisons = run_all()
    rows = [
        [
            c.topology,
            c.node_count,
            c.update_messages,
            c.querytime_messages_per_query,
            c.querytime_messages_total,
            f"{c.breakeven_queries:.1f}",
            c.acyclic_applicable,
            c.acyclic_matches,
            c.answers_agree,
        ]
        for c in comparisons
    ]
    table = format_table(
        [
            "topology",
            "nodes",
            "update msgs (once)",
            "query-time msgs/query",
            f"query-time msgs ({comparisons[0].queries_in_batch} queries)",
            "break-even #queries",
            "acyclic applicable",
            "acyclic matches",
            "answers agree",
        ],
        rows,
        title="E9 — materialised update vs query-time vs centralized",
    )
    print(table)
    return table

