"""Experiment E9 — materialised update versus the alternatives.

The introduction positions the update algorithm against two alternatives:

* answering queries *at query time*, fetching distributed data on every query
  ("requiring the participation of all nodes at query time"),
* the *global* algorithm of the related work, which assumes a central node
  performing all the computation.

The distributed update runs on a :class:`repro.api.Session`; the three
baselines of :mod:`repro.baselines` (``centralized_update``,
``query_time_answer``, ``acyclic_update``) run on the same
:class:`~repro.api.ScenarioSpec`'s schemas, rules and data.  The experiment
reports, for a batch of user queries issued at the super-peer:

* messages paid by the distributed update (once) and per subsequent query
  (zero — queries are answered locally),
* messages paid by query-time answering for every query in the batch,
* the centralized baseline's cost model (no messages, but every database must
  be shipped to / accessible from one site — reported as tuples that would
  need to be centralised),
* whether the acyclic single-pass baseline applies and, where it does, whether
  it reaches the same fix-point (it fails on cyclic networks — precisely the
  limitation the paper's algorithm removes).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.session import Session
from repro.api.spec import ScenarioSpec
from repro.baselines import acyclic_update, centralized_update, query_time_answer
from repro.core.fixpoint import ground_part
from repro.database.parser import parse_query
from repro.errors import ReproError
from repro.experiments.runner import report
from repro.workloads.topologies import TopologySpec, clique_topology, tree_topology


@dataclass(frozen=True)
class BaselineComparison:
    """Costs of the competing algorithms on one topology."""

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

    # The baselines on the same initial state, at one site.
    schemas, rules, data = scenario.schemas, scenario.rules, scenario.data
    query = parse_query(query_text)
    central = centralized_update(schemas, rules, data)
    central_answers = central.databases[query_node].query(query)
    query_time = query_time_answer(schemas, rules, data, query_node, query)
    querytime_messages = query_time.messages

    try:
        acyclic = acyclic_update(schemas, rules, data)
        acyclic_applicable = True
        central_ground = ground_part(central.snapshot())
        acyclic_matches = ground_part(acyclic.snapshot()) == central_ground
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
        answers_agree=(local_answers == set(query_time.answers) == central_answers),
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
    return report(
        "E9 — materialised update vs query-time vs centralized",
        {
            "topology": "topology",
            "nodes": "node_count",
            "update msgs (once)": "update_messages",
            "query-time msgs/query": "querytime_messages_per_query",
            f"query-time msgs ({comparisons[0].queries_in_batch} queries)": (
                "querytime_messages_total"
            ),
            "break-even #queries": lambda c: f"{c.breakeven_queries:.1f}",
            "acyclic applicable": "acyclic_applicable",
            "acyclic matches": "acyclic_matches",
            "answers agree": "answers_agree",
        },
        comparisons,
    )
