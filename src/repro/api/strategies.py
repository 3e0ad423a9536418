"""The four update strategies, in a fixed name → strategy table.

The paper positions one algorithm — the distributed materialised update —
against three alternatives: a centralized global algorithm (Calvanese et al.),
a single-pass algorithm for acyclic networks (Halevy et al.) and query-time
answering without materialisation.  The seed exposed each through a different
function with a different result type; here all four implement the
:class:`UpdateStrategy` protocol and are reached uniformly through
``session.update(strategy="...")``:

* ``"distributed"`` — the paper's algorithm, executed on the session's live
  system through its transport engine (messages, simulated time),
* ``"centralized"`` — the global fix-point computed at one site from the
  session's current contents (no messages),
* ``"acyclic"`` — one propagation pass in dependency order; refuses cyclic
  networks unless ``force=True``,
* ``"querytime"`` — fetches one node's dependency closure at query time and
  optionally answers a query on it.

The reference strategies (everything but ``"distributed"``) are *simulations
on the side*: they read the session's schemas, rules and current data but do
not mutate its live databases, so a session can compare all four from the
same starting state.  Experiment E9 is where the four are compared.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Iterable, Protocol

from repro.api.result import RunResult
from repro.baselines.acyclic import acyclic_update
from repro.baselines.centralized import centralized_update
from repro.baselines.querytime import fetch_closure
from repro.coordination.changeset import Change, Snapshot
from repro.coordination.rule import NodeId
from repro.database.parser import parse_query
from repro.database.query import ConjunctiveQuery
from repro.errors import ReproError
from repro.stats.collector import StatisticsCollector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (session imports us)
    from repro.api.session import Session


class UpdateStrategy(Protocol):
    """One way of bringing a network's data to its fix-point."""

    name: str

    def run(
        self,
        session: Session,
        *,
        origins: Iterable[NodeId] | None = None,
        **options: object,
    ) -> RunResult:
        """Execute the strategy for ``session`` and report a uniform result."""
        ...


class DistributedStrategy:
    """The paper's algorithm, run on the live system through its engine."""

    name = "distributed"

    def run(
        self,
        session: Session,
        *,
        origins: Iterable[NodeId] | None = None,
        **options: object,
    ) -> RunResult:
        if options:
            raise ReproError(
                f"the distributed strategy takes no options, got {sorted(options)}"
            )
        return session.run("update", origins=origins)


def _reference_result(
    before: Snapshot,
    strategy_name: str,
    after: Snapshot,
    started: float,
    extras: dict[str, object],
) -> RunResult:
    """Package a reference computation's databases as a RunResult.

    ``before`` is the live system's snapshot the strategy started from; the
    synthesised per-node statistics record the rows the reference computation
    added on top of it (no messages — reference strategies pay none).
    """
    deltas = Change.between(before, after)
    stats = StatisticsCollector()
    for node_id, relations in deltas.inserts.items():
        inserted = sum(len(rows) for rows in relations.values())
        stats.record_update(node_id, received=inserted, inserted=inserted)
    return RunResult(
        phase="update",
        strategy=strategy_name,
        engine="reference",
        completion_time=0.0,
        wall_seconds=time.perf_counter() - started,
        stats=stats.snapshot(),
        databases=after,
        deltas=deltas,
        extras=extras,
    )


class CentralizedStrategy:
    """Global fix-point with all data available at one site (no messages)."""

    name = "centralized"

    def run(
        self,
        session: Session,
        *,
        origins: Iterable[NodeId] | None = None,
        max_rounds: int = 10_000,
        node: NodeId | None = None,
        query: ConjunctiveQuery | str | None = None,
        **options: object,
    ) -> RunResult:
        if options:
            raise ReproError(
                "the centralized strategy understands max_rounds, node and "
                f"query only, got {sorted(options)}"
            )
        if origins is not None:
            raise ReproError(
                "the centralized strategy computes the full-network fix-point; "
                "origins is not supported"
            )
        started = time.perf_counter()
        before = session.system.databases()
        result = centralized_update(
            session.schemas(), session.rules(), before, max_rounds=max_rounds
        )
        extras: dict[str, object] = {
            "rounds": result.rounds,
            "rule_applications": result.rule_applications,
            "tuples_inserted": result.tuples_inserted,
        }
        if query is not None:
            if isinstance(query, str):
                query = parse_query(query)
            target = node if node is not None else session.system.super_peer
            extras["node"] = target
            extras["answers"] = frozenset(result.databases[target].query(query))
        return _reference_result(
            before, self.name, result.snapshot(), started, extras
        )


class AcyclicStrategy:
    """Single propagation pass in dependency order (Halevy et al. baseline)."""

    name = "acyclic"

    def run(
        self,
        session: Session,
        *,
        origins: Iterable[NodeId] | None = None,
        force: bool = False,
        **options: object,
    ) -> RunResult:
        if options:
            raise ReproError(
                f"the acyclic strategy understands force only, got {sorted(options)}"
            )
        if origins is not None:
            raise ReproError(
                "the acyclic strategy is a whole-network single pass; "
                "origins is not supported"
            )
        started = time.perf_counter()
        before = session.system.databases()
        result = acyclic_update(
            session.schemas(), session.rules(), before, force=force
        )
        return _reference_result(
            before,
            self.name,
            result.snapshot(),
            started,
            {
                "rule_applications": result.rule_applications,
                "tuples_inserted": result.tuples_inserted,
            },
        )


class QueryTimeStrategy:
    """Fetch one node's dependency closure at query time (no materialisation)."""

    name = "querytime"

    def run(
        self,
        session: Session,
        *,
        origins: Iterable[NodeId] | None = None,
        node: NodeId | None = None,
        query: ConjunctiveQuery | str | None = None,
        max_rounds: int = 10_000,
        **options: object,
    ) -> RunResult:
        if options:
            raise ReproError(
                "the querytime strategy understands node, query and max_rounds "
                f"only, got {sorted(options)}"
            )
        started = time.perf_counter()
        if origins is not None:
            origin_list = list(origins)
            if len(origin_list) != 1 or (node is not None and node != origin_list[0]):
                raise ReproError(
                    "the querytime strategy fetches one node's dependency "
                    "closure; pass exactly one origin (or node=...)"
                )
            node = origin_list[0]
        if node is None:
            node = session.system.super_peer
        before = session.system.databases()
        fetch = fetch_closure(
            session.schemas(),
            session.rules(),
            before,
            node,
            max_rounds=max_rounds,
        )
        after = {nid: db.facts() for nid, db in fetch.databases.items()}
        answers: frozenset[tuple] | None = None
        if query is not None:
            if isinstance(query, str):
                query = parse_query(query)
            answers = frozenset(fetch.databases[node].query(query))
        return _reference_result(
            before,
            self.name,
            after,
            started,
            {
                "node": node,
                "messages": fetch.messages,
                "rounds": fetch.rounds,
                "nodes_contacted": len(fetch.closure) - 1,
                "answers": answers,
            },
        )


#: The four strategies, by name: the paper's algorithm and its three baselines.
_STRATEGIES: dict[str, UpdateStrategy] = {
    strategy.name: strategy
    for strategy in (
        DistributedStrategy(),
        CentralizedStrategy(),
        AcyclicStrategy(),
        QueryTimeStrategy(),
    )
}


def get_strategy(name: str) -> UpdateStrategy:
    """Look up a strategy by name (raising with the available names)."""
    try:
        return _STRATEGIES[name]
    except KeyError:
        raise ReproError(
            f"unknown update strategy {name!r}; "
            f"available: {', '.join(available_strategies())}"
        ) from None


def available_strategies() -> tuple[str, ...]:
    """The strategy names, sorted."""
    return tuple(sorted(_STRATEGIES))
