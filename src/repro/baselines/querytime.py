"""Query-time answering without materialisation.

The introduction of the paper contrasts the *update* problem with the *query
answering* problem: without materialisation, "the answer to a local query may
involve data that is distributed in the network, thus requiring the
participation of all nodes at query time".  This baseline models that cost so
experiment E9 can compare it with the post-update local answering:

* the dependency closure of the queried node is computed,
* data is fetched along coordination rules, round after round, until the
  closure reaches its fix-point — every (rule, source) fetch in a round counts
  one query message and one answer message, which is what a non-materialising
  system pays *per user query*,
* the user query is finally evaluated on the queried node's accumulated data.

The data the baseline computes for the queried node is identical to the
distributed update's result (both are the same fix-point restricted to the
node's dependency closure); what differs — and what the benchmark reports —
is *when* the messages are paid: once, at update time, versus on every query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.baselines.centralized import DataSpec, SchemaSpec, centralized_update
from repro.coordination.depgraph import DependencyGraph
from repro.coordination.rule import CoordinationRule, NodeId
from repro.database.query import ConjunctiveQuery


@dataclass(frozen=True)
class QueryTimeResult:
    """Outcome of answering one query at query time."""

    answers: frozenset[tuple]
    messages: int
    rounds: int
    nodes_contacted: int


def query_time_answer(
    schemas: SchemaSpec,
    rules: Iterable[CoordinationRule],
    data: DataSpec | None,
    node_id: NodeId,
    query: ConjunctiveQuery,
    *,
    max_rounds: int = 10_000,
) -> QueryTimeResult:
    """Answer ``query`` at ``node_id`` by fetching remote data at query time.

    The fetch is the centralized fix-point over the rules of ``node_id``'s
    dependency closure; every round fetches once through every (rule,
    source) pair, one query message and one answer message each.
    """
    rules = list(rules)
    graph = DependencyGraph.from_rules(rules, nodes=schemas.keys())
    closure = graph.reachable_from(node_id)
    relevant = [
        rule
        for rule in rules
        if rule.target in closure and all(source in closure for source in rule.sources)
    ]
    fetched = centralized_update(schemas, relevant, data, max_rounds=max_rounds)
    return QueryTimeResult(
        answers=frozenset(fetched.databases[node_id].query(query)),
        messages=fetched.rounds * 2 * sum(len(rule.sources) for rule in relevant),
        rounds=fetched.rounds,
        nodes_contacted=len(closure) - 1,
    )
