"""The distributed database update (algorithms A4–A6 of the paper).

The update phase propagates, through the coordination rules, every piece of
data a node is entitled to import, so that later queries can be answered
locally.  The message flow per node is:

* ``start`` — triggered by the super-peer's global update request (or by a
  query-dependent update): the node sends a ``Query`` for every coordination
  rule targeting it to each of the rule's source nodes, with the path ``[me]``.
* ``Query`` (A4) — a source node receiving a query records the requester in
  its ``owner`` table, evaluates the requested body fragment on its local
  database, answers immediately, and — if it is not already on the query's
  path (loop detection) — forwards queries for its *own* rules to its own
  sources with the extended path.
* ``Answer`` (A5) — the head node stores the received fragment, recomputes the
  rule (joining fragments when the body spans several sources), applies the
  result to its local database via the chase step, flags the path as carrying
  new data or not, and — when its database actually changed — pushes fresh
  answers to every node that registered as an owner (dependants importing data
  from it).
* ``UpdateLocalData`` (A6) — implemented by
  :meth:`repro.database.database.LocalDatabase.apply_view_tuples`: head facts
  are inserted unless a row matching them on every non-existential position is
  already present; existential positions receive deterministic labelled nulls.

Fix-point (Lemma 1): a result set stops propagating when (a) the node is
already on the path it travelled and (b) it brings no new data.  A node's
``state_u`` becomes ``closed`` when either every incoming rule has reported
complete fragments from all of its sources, or every path seen so far brought
no new data — the two (disjunctive) conditions in the paper's ``Answer``
pseudo-code.  When a node closes it notifies its dependants once, so closure
propagates through acyclic parts of the network.

Propagation policy
------------------
The literal algorithm re-propagates a query along every distinct dependency
path (the statistics module of the prototype even counts the resulting
duplicate queries).  On a clique the number of simple paths is factorial in
the node count, so the faithful policy is only usable on small networks.  The
node therefore supports two policies (the ``propagation`` setting of
``docs/scenarios.md``):

* ``"per_path"`` — faithful to the pseudo-code; a node forwards queries once
  per distinct path it is reached through,
* ``"once"`` — the "delta optimisation" the paper alludes to: a node forwards
  its queries only the first time it is reached in an update run.  The
  owners-push mechanism still delivers every later data change, so the final
  fix-point is identical; only the number of (duplicate) messages differs.

Fragment maintenance
--------------------
A4 and A5 answer and push *whole* fragments, and a source is asked for the
same fragment many times per run.  What goes on the wire stays whole, but
both ends work on what is new.  A source evaluates each body its outgoing
rules read in full only once — rules with equal bodies share it — and then
*maintains* it, rows and modelled byte size alike (:func:`maintain_fragment`,
the one function cold and warm, naive and incremental runs all go through).
A head node joins and chases only the rows an answer adds to what it has
stored (:meth:`UpdateProtocol._receive`); A5's "recompute the rule" survives
as the fallback of a self-validating mark (:class:`~repro.core.state.FiredMark`).  :func:`fragment_for` itself stays
pure, so the centralized baseline — the oracle the tests and the benchmark
compare with — always recomputes.

Incremental (delta-driven) mode
-------------------------------
On top of the naive pull rounds, the protocol supports an *incremental* mode
used by every engine for repeat runs whose only change since the last
converged run is rows inserted or removed (see ``docs/incremental.md``).  No
queries are sent at all: a node whose base data changed calls
:meth:`start_incremental`, which re-fires the incoming rules whose head
relation lost rows (a removal retracts nothing derived, so those are the only
rules it can unsatisfy) and pushes what its maintained fragments gained —
fragment *deltas* — to the dependants already registered in its ``owner``
table by the previous run.  A receiver handles such an answer (payload flag
``incremental``) like any other — joining only the fresh rows against its
stored fragments (:func:`join_fragments` with a delta source) and applying
the result through the same A6 chase step — and cascades its own incremental
pushes when rows were actually inserted.  Nodes stay ``closed`` throughout — the previous
run's fix-point plus the monotone delta propagation is the new fix-point
(Lemma 1), and quiescence is detected by the engines' existing barriers.
The mode changes *work*, never *results*: deterministic labelled nulls make
the final databases bit-identical to a naive re-run.
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.coordination.rule import CoordinationRule, NodeId
from repro.core.state import (
    FiredMark,
    MaintainedFragment,
    OwnerEntry,
    PathFlags,
    RuleFlags,
    UpdateState,
)
from repro.database.evaluate import (
    comparisons_hold,
    compile_comparisons,
    evaluate_body,
    evaluate_body_delta,
)
from repro.database.query import Variable, constant_types
from repro.database.relation import row_picker
from repro.network.message import Message, MessageType, rows_size, value_size

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.node import PeerNode

Fragment = frozenset[tuple]

#: Supported propagation policies.
PROPAGATION_POLICIES = ("once", "per_path")


def fragment_variables(rule: CoordinationRule, source: NodeId) -> tuple[Variable, ...]:
    """The column order of the fragment a source node returns for ``rule``."""
    return rule.body_query_for(source).body_variables


def fragment_for(database, rule: CoordinationRule, node_id: NodeId) -> Fragment:
    """Evaluate the part of ``rule``'s body stored at ``node_id`` over ``database``.

    The result is a set of tuples over :func:`fragment_variables` order; the
    head node joins fragments from every source before projecting onto the
    rule's distinguished variables.  This function is pure — it always
    evaluates in full — and is shared with the centralized baseline, which
    evaluates the same fragments without any message exchange.
    """
    query = rule.body_query_for(node_id)
    return frozenset(evaluate_body(database, query, query.body_variables))


def fragment_delta_for(
    database,
    rule: CoordinationRule,
    node_id: NodeId,
    delta: Mapping[str, Iterable[tuple]],
) -> Fragment:
    """Semi-naive fragment refresh: rows of the fragment that touch ``delta``.

    ``delta`` maps relation names to rows recently inserted into
    ``database``.  The result is a *subset* of :func:`fragment_for` — every
    fragment row whose derivation uses at least one delta row — so a cached
    fragment unioned with this delta equals the full re-evaluation, at cost
    proportional to the delta.
    """
    query = rule.body_query_for(node_id)
    return frozenset(
        evaluate_body_delta(database, query, delta, query.body_variables)
    )


def fragment_body(
    rule: CoordinationRule, node_id: NodeId
) -> tuple[str, tuple[str, ...]]:
    """The key ``rule``'s body at ``node_id`` is maintained under, and the
    names of the relations it reads (:func:`maintain_fragment`).

    Outgoing rules with equal bodies at one peer — a body exported to several
    neighbours, or split by a neighbour's schema into several heads — get
    equal keys and so share one maintained fragment.  The key is the body
    query's ``repr``, equal only when the queries are; being a string, it
    hashes once and compares without walking the query.  Built once per
    interned body query, so once per distinct body.
    """
    query = rule.body_query_for(node_id)
    body = query.derived.get("fragment_body")
    if body is None:
        body = query.derived["fragment_body"] = (repr(query), query.relations)
    return body


def maintain_fragment(node: "PeerNode", rule: CoordinationRule) -> MaintainedFragment:
    """The part of ``rule``'s body stored at ``node`` (a peer), *maintained*.

    The entry is the body's, not the rule's: every outgoing rule with that
    body at the peer gets the same one (:func:`fragment_body`).  The first
    call evaluates the fragment in full (:func:`fragment_for`) and remembers,
    per body relation, which ``Relation`` object it read, its ``removals``
    counter and its row count.  A later call compares those marks with the
    relations as they are now: nothing changed → the very same frozenset;
    relations only gained rows → the remembered fragment plus
    :func:`fragment_delta_for` over exactly the rows inserted since; anything
    else (a delete, clear or replace, a relation added or swapped) → a full
    evaluation again.  The entry validates itself against the data, so nobody
    has to invalidate it and a stale fragment is never returned
    (``docs/incremental.md``).  Its modelled size is maintained the same way:
    only rows new to the fragment are sized.
    """
    key, names = fragment_body(rule, node.node_id)
    database = node.database
    cache = node.state.fragment_cache
    entry = cache.get(key)
    rows = None
    if entry is not None:
        delta = {}
        for name, (seen, seen_removals, seen_count) in zip(names, entry.marks):
            relation = database.get(name)
            if relation is not seen:
                break
            if relation is None:
                continue
            if relation.removals != seen_removals:
                break
            count = len(relation)
            if count > seen_count:
                delta[name] = relation.newest(count - seen_count)
        else:
            if not delta:
                return entry
            rows, size = entry.rows, entry.size
            added = fragment_delta_for(database, rule, node.node_id, delta) - rows
            if added:
                rows, size = rows | added, size + rows_size(added)
    if rows is None:
        rows = fragment_for(database, rule, node.node_id)
        size = value_size(rows)
    marks = []
    for name in names:
        relation = database.get(name)
        marks.append(
            (None, 0, 0)
            if relation is None
            else (relation, relation.removals, len(relation))
        )
    entry = cache[key] = MaintainedFragment(rows, tuple(marks), size)
    return entry


class _JoinShape:
    """The hash-join plans of every rule of one *shape*, one per leading
    source position.

    A rule's shape is what its join depends on: the fragment columns of each
    source (by position), the comparisons and the distinguished variables —
    not its id, its node ids or its head relation.  A partial binding is a
    tuple that grows by one source's new columns at a time, so a variable's
    *slot* is its position in binding order.  Per source the plan holds its
    position and three pickers: the fragment columns of the variables bound
    by earlier sources (the hash key), those variables' slots in the
    partial, and the new fragment columns.
    """

    __slots__ = ("plans", "__weakref__")

    def __init__(
        self,
        variables: tuple[tuple[Variable, ...], ...],
        comparisons: tuple,
        distinguished: tuple[Variable, ...],
    ):
        plans = []
        for lead in range(len(variables)):
            slot_of: dict[Variable, int] = {}
            steps = []
            # The leading (delta) source first, the rest in rule order.
            for position in [lead, *(p for p in range(len(variables)) if p != lead)]:
                columns = variables[position]
                shared = [c for c, v in enumerate(columns) if v in slot_of]
                bound = [slot_of[columns[c]] for c in shared]
                fresh = [c for c, v in enumerate(columns) if v not in slot_of]
                for column in fresh:
                    slot_of[columns[column]] = len(slot_of)
                steps.append(
                    (position, row_picker(shared), row_picker(bound), row_picker(fresh))
                )
            comparisons_at = compile_comparisons(comparisons, slot_of)
            project = row_picker([slot_of[v] for v in distinguished])
            plans.append((tuple(steps), comparisons_at, project))
        self.plans = tuple(plans)


#: Interned join shapes (:func:`_join_shape`); weak values, so a shape goes
#: with the last rule that holds it.
_JOIN_SHAPES: "weakref.WeakValueDictionary[tuple, _JoinShape]" = (
    weakref.WeakValueDictionary()
)


def _join_shape(rule: CoordinationRule) -> _JoinShape:
    """``rule``'s join shape, looked up once per rule and compiled once per
    shape."""
    shape = rule.derived.get("join")
    if shape is None:
        variables = tuple(fragment_variables(rule, source) for source in rule.sources)
        comparisons = rule.comparisons
        distinguished = rule.distinguished_variables
        key = (
            variables,
            comparisons,
            constant_types(term for c in comparisons for term in (c.left, c.right)),
            distinguished,
        )
        shape = _JOIN_SHAPES.get(key)
        if shape is None:
            shape = _JOIN_SHAPES[key] = _JoinShape(
                variables, comparisons, distinguished
            )
        rule.derived["join"] = shape
    return shape


def join_fragments(
    rule: CoordinationRule,
    fragments: Mapping[NodeId, Iterable[tuple]],
    *,
    delta_source: NodeId | None = None,
    delta_rows: Iterable[tuple] | None = None,
) -> set[tuple]:
    """Join per-source fragments and project onto the distinguished variables.

    Returns the set of answer tuples (one per firing) ordered like
    ``rule.distinguished_variables``.  Sources with no fragment yet make the
    result empty — the rule simply cannot fire until every source answered at
    least once.  The join is a hash join per source, keyed on the columns
    earlier sources already bound (:class:`_JoinShape`); for a single-source
    rule it is a plain projection of the fragment.

    With ``delta_source``/``delta_rows`` the join is *semi-naive*: the delta
    source is joined first and restricted to ``delta_rows`` (the rows of its
    fragment that are new), so only firings that use at least one new row are
    produced — the firings over the old rows were already computed when they
    arrived.
    """
    sources = rule.sources
    for source in sources:
        if source not in fragments:
            return set()
    lead = 0
    if delta_source is not None:
        if delta_source not in sources:
            return set()
        lead = sources.index(delta_source)
    steps, comparisons, project = _join_shape(rule).plans[lead]

    partials: list[tuple] | None = None
    for position, key_of_row, key_of_partial, fresh_of_row in steps:
        rows = fragments[sources[position]]
        if partials is None:
            # The leading source binds every one of its columns, in order.
            if delta_source is not None and delta_rows is not None:
                rows = delta_rows
            partials = list(rows)
        else:
            index: dict[tuple, list[tuple]] = defaultdict(list)
            for row in rows:
                index[key_of_row(row)].append(fresh_of_row(row))
            partials = [
                partial + extension
                for partial in partials
                for extension in index.get(key_of_partial(partial), ())
            ]
        if not partials:
            return set()
    if comparisons:
        partials = [p for p in partials if comparisons_hold(comparisons, p)]
    return set(map(project, partials))


class UpdateProtocol:
    """The update-phase behaviour of one peer node.

    Convergence and local fix-point detection are organised around *pull
    rounds*: a round sends one ``Query`` per (incoming rule, source node) and
    waits for the matching answers; when the round completes without having
    imported a single new tuple, the node has reached its fix-point and closes
    (``state_u = closed``); when it did import something, another round is
    started — the paper's "the update algorithm has to continue the
    computation until a fix-point is reached".  Pushed answers from sources
    whose data changed later re-open a closed node and trigger a new round, so
    the global fix-point is reached and every node ends up closed (Lemma 1).
    """

    def __init__(self, node: "PeerNode"):
        # The node owns this protocol object; a strong reference back would
        # make every peer cyclic garbage that only the collector can free.
        self.node: "PeerNode" = weakref.proxy(node)

    # ---------------------------------------------------------------- start

    def start(self, path: tuple[NodeId, ...] = ()) -> None:
        """Begin the update at this node (global update request).

        ``path`` is the sequence of nodes the triggering request travelled
        through; the node's own queries extend it with its identifier.
        """
        node = self.node
        state = node.state
        if not node.incoming_rules:
            state.state_u = UpdateState.CLOSED
            return
        state.state_u = UpdateState.OPEN
        own_path = (node.node_id,) + tuple(path)
        self._start_round(own_path)

    def _start_round(self, path: tuple[NodeId, ...]) -> None:
        """Send one Query per (incoming rule, source) and await the answers."""
        node = self.node
        state = node.state
        if state.pending_answers:
            # A round is already in flight; remember to run another one when
            # it completes, so no trigger is ever lost.
            state.rerun_requested = True
            return
        if not node.incoming_rules:
            state.state_u = UpdateState.CLOSED
            return
        state.update_started = True
        state.round_dirty = False
        state.rerun_requested = False
        state.queried_paths.add(path)
        rule_flags = state.rule_flags
        for rule_id, rule in node.incoming_rules.items():
            if rule_id not in rule_flags:
                rule_flags[rule_id] = RuleFlags()
            for source in rule.sources:
                state.pending_answers.add((rule_id, source))
        # Send after registering every expectation, so an answer delivered
        # re-entrantly (zero-latency transports) cannot complete the round
        # prematurely.
        for rule_id, rule in node.incoming_rules.items():
            for source in rule.sources:
                node.send(
                    source,
                    MessageType.QUERY,
                    {
                        "rule_id": rule_id,
                        "requester": node.node_id,
                        "path": path,
                    },
                )

    def request_rule(self, rule: CoordinationRule) -> None:
        """Trigger (re-)querying after ``addLink`` installed a new rule.

        The whole rule set is re-pulled in a fresh round, which both fetches
        the new rule's data and re-checks the fix-point.
        """
        node = self.node
        state = node.state
        state.state_u = UpdateState.OPEN
        if rule.rule_id not in state.rule_flags:
            state.rule_flags[rule.rule_id] = RuleFlags()
        if state.pending_answers:
            state.rerun_requested = True
        else:
            self._start_round((node.node_id,))

    # ------------------------------------------------------- incremental mode

    def start_incremental(
        self,
        inserted: Mapping[str, Iterable[tuple]],
        removed: Mapping[str, Iterable[tuple]] | None = None,
    ) -> None:
        """Seed the delta frontier at this node (incremental update run).

        ``inserted`` and ``removed`` map relation names to rows *already*
        inserted into / deleted from this node's database (the change is
        applied before the phase starts).  No queries are
        sent and the node stays in whatever ``state_u`` the previous
        converged run left it in.

        A removal retracts nothing derived from the row, so it can only
        unsatisfy the incoming rules whose head relation lost it: those are
        fired in full from the stored fragments, exactly as the first answer
        of a naive re-run would fire them (their :class:`FiredMark` fails),
        and re-derive what the remaining data still implies.  Then the
        maintained fragments (:func:`maintain_fragment`) pick the new rows
        up from the relations themselves, and what they add is pushed to the
        dependants registered in ``owner`` by the previous run.  Receivers
        cascade through :meth:`on_answer`'s incremental branch until the
        frontier is empty — the engines' quiescence barriers detect exactly
        that.
        """
        node = self.node
        seeded = sum(len(tuple(rows)) for rows in inserted.values())
        if removed:
            seeded += sum(len(tuple(rows)) for rows in removed.values())
            for rule in node.incoming_rules.values():
                if rule.head.relation in removed and not self._fired_holds(rule):
                    derived = self._fire_in_full(rule)
                    if derived:
                        node.stats.record_incremental(
                            node.node_id, rules_fired=1, rows_derived=len(derived)
                        )
        if seeded:
            node.stats.record_incremental(node.node_id, seed_rows=seeded)
        self._push_to_owners(incremental=True)

    def _fired_holds(self, rule: CoordinationRule) -> bool:
        """True while ``rule``'s :class:`FiredMark` says every firing over
        its stored fragments has been offered to the head relation."""
        mark = self.node.state.fired.get(rule.rule_id)
        if mark is None or mark.rule is not rule:
            return False
        # No such relation: no mark can match, and `_fire` reports it.
        relation = self.node.database.get(rule.head.relation)
        return (
            relation is not None
            and mark.relation is relation
            and mark.removals == relation.removals
        )

    def _fire_in_full(self, rule: CoordinationRule) -> set[tuple]:
        """Fire ``rule`` over all its stored fragments and mark it fired."""
        inserted = self._fire(rule)
        relation = self.node.database.relation(rule.head.relation)
        self.node.state.fired[rule.rule_id] = FiredMark(
            rule, relation, relation.removals
        )
        return inserted

    def _receive(
        self, rule: CoordinationRule, source: NodeId, tuples: Fragment
    ) -> set[tuple]:
        """A5's data half, for whole fragments and deltas alike: store what
        ``source`` sent for ``rule``, fire the rule, return the new head rows.

        Only the rows the answer *adds* are joined (against the other
        sources' stored fragments) and chased — the firings over the rows
        already stored were offered to the head relation when those arrived.
        That holds for as long as ``state.fired`` says so (:class:`FiredMark`);
        when it does not — the first answer, a delete or clear at the head,
        another rule under the same id — the rule is fired in full.
        """
        state = self.node.state
        mark = state.fired.get(rule.rule_id)
        if mark is not None and mark.rule is not rule:
            # Stored under this id by another rule: rows of another shape.
            state.forget_incoming_rule(rule.rule_id)
        stored = state.fragments.get(rule.rule_id)
        if stored is None:
            stored = state.fragments[rule.rule_id] = {}
        previous = stored.get(source)
        if previous is None:
            fresh = stored[source] = tuples
        elif tuples is previous:
            fresh = frozenset()
        else:
            fresh = tuples - previous
            if len(tuples) == len(previous) + len(fresh):
                # A whole-fragment answer normally holds every earlier row:
                # keep the sender's set itself, not an equal union.
                stored[source] = tuples
            elif fresh:
                stored[source] = previous | fresh
        if self._fired_holds(rule):
            if not fresh:
                return set()
            return self._fire(rule, source, fresh)
        return self._fire_in_full(rule)

    def _fire(
        self,
        rule: CoordinationRule,
        delta_source: NodeId | None = None,
        delta_rows: Fragment | None = None,
    ) -> set[tuple]:
        """Join ``rule``'s stored fragments (the delta as for
        :func:`join_fragments`), chase the firings in, return the new rows."""
        answers = join_fragments(
            rule,
            self.node.state.fragments.get(rule.rule_id) or {},
            delta_source=delta_source,
            delta_rows=delta_rows,
        )
        return self.node.database.apply_view_tuples(
            rule.rule_id, rule.head, rule.distinguished_variables, answers
        )

    # ------------------------------------------------------------------- A4

    def on_query(self, message: Message) -> None:
        """Algorithm A4 (``Query``): answer a fragment request and propagate."""
        node = self.node
        state = node.state
        rule_id: str = message.payload["rule_id"]
        requester: NodeId = message.payload["requester"]
        path: tuple[NodeId, ...] = tuple(message.payload["path"])

        rule = node.outgoing_rules.get(rule_id)
        if rule is None:
            # The rule was deleted while the query was in flight (Section 4);
            # answer nothing and do not register the requester.
            return

        # A node with nothing to import holds complete data by definition.
        if not node.incoming_rules:
            state.state_u = UpdateState.CLOSED

        duplicate = state.has_update_owner(requester, rule_id)
        node.stats.record_query(node.node_id, duplicate=duplicate)
        if not duplicate:
            origin = path[-1] if path else requester
            state.update_owner.append(
                OwnerEntry(requester=requester, origin=origin, rule_id=rule_id)
            )

        maintained = maintain_fragment(node, rule)
        # A query answer *is* a push of the full fragment: recording it keeps
        # the push-suppression ledger exact, so neither a later naive
        # `_push_to_owners` nor an incremental delta push re-sends rows the
        # requester already received in this answer.
        state.pushed_fragments[(rule_id, requester)] = maintained.rows
        node.send(
            requester,
            MessageType.ANSWER,
            {
                "rule_id": rule_id,
                "source": node.node_id,
                "tuples": maintained.rows,
                "complete": state.state_u == UpdateState.CLOSED,
                "path": path,
            },
            tuples_size=maintained.size,
        )

        # Propagate the update wave: a node that has not started updating yet
        # starts its own pull rounds when the wave reaches it.
        if node.incoming_rules and not state.update_started:
            state.state_u = UpdateState.OPEN
            self._start_round((node.node_id,) + path)
        elif (
            node.propagation == "per_path"
            and node.incoming_rules
            and node.node_id not in path
            and ((node.node_id,) + path) not in state.queried_paths
        ):
            # Faithful per-path re-propagation (the duplicate queries the
            # paper's statistics module counts).  The extra answers are
            # applied like any other answer but play no role in the round
            # bookkeeping.
            extended = (node.node_id,) + path
            state.queried_paths.add(extended)
            for own_rule_id, own_rule in node.incoming_rules.items():
                for source in own_rule.sources:
                    node.send(
                        source,
                        MessageType.QUERY,
                        {
                            "rule_id": own_rule_id,
                            "requester": node.node_id,
                            "path": extended,
                        },
                    )

    # ------------------------------------------------------------------- A5

    def on_answer(self, message: Message) -> None:
        """Algorithm A5 (``Answer``): apply a fragment answer locally."""
        node = self.node
        state = node.state
        rule_id: str = message.payload["rule_id"]
        source: NodeId = message.payload["source"]
        tuples: Fragment = frozenset(message.payload["tuples"])
        complete: bool = message.payload["complete"]
        path: tuple[NodeId, ...] = tuple(message.payload["path"])

        rule = node.incoming_rules.get(rule_id)
        if rule is None:
            # Rule deleted while the answer was in flight: drop it.
            return

        inserted = self._receive(rule, source, tuples)
        node.stats.record_update(
            node.node_id, received=len(tuples), inserted=len(inserted)
        )

        if message.payload.get("incremental"):
            # A delta push from an incremental run: nodes stay closed and
            # there are no rounds, so none of the bookkeeping below applies.
            if inserted:
                node.stats.record_incremental(
                    node.node_id, rules_fired=1, rows_derived=len(inserted)
                )
                self._push_to_owners(incremental=True)
            return

        # Flags are made only when missing: nearly every answer finds them.
        flags = state.rule_flags.get(rule_id)
        if flags is None:
            flags = state.rule_flags[rule_id] = RuleFlags()
        if complete:
            flags.complete_sources.add(source)
            if set(rule.sources) <= flags.complete_sources:
                flags.flag = True

        path_flags = state.update_paths.get(path)
        if path_flags is None:
            path_flags = state.update_paths[path] = PathFlags()
        path_flags.no_new_data = not inserted
        if complete:
            path_flags.closed = True

        if inserted:
            # New data: remember that this round is dirty, re-open if we had
            # already closed, and push the refreshed fragments downstream.
            state.round_dirty = True
            if state.state_u == UpdateState.CLOSED:
                state.state_u = UpdateState.OPEN
                state.rerun_requested = True
            self._push_to_owners()

        state.pending_answers.discard((rule_id, source))
        if not state.pending_answers:
            self._complete_round()

    # ---------------------------------------------------------------- rounds

    def _complete_round(self) -> None:
        """A full round of answers has arrived: close or start the next round."""
        node = self.node
        state = node.state
        if not state.update_started:
            # Answers arrived outside any round (e.g. pure pushes while the
            # node never started); rounds have nothing to conclude.
            if state.rerun_requested:
                state.rerun_requested = False
                self._start_round((node.node_id,))
            return
        state.rounds_completed += 1
        if state.round_dirty or state.rerun_requested:
            state.round_dirty = False
            state.rerun_requested = False
            self._start_round((node.node_id,))
            return
        # Fix-point at this node: the last full round imported nothing new.
        was_closed = state.state_u == UpdateState.CLOSED
        state.state_u = UpdateState.CLOSED
        rule_flags = state.rule_flags
        for rule_id in node.incoming_rules:
            flags = rule_flags.get(rule_id)
            if flags is None:
                flags = rule_flags[rule_id] = RuleFlags()
            flags.finished = True
        for flags in state.update_paths.values():
            flags.closed = True
        if not was_closed:
            # Tell dependants our fragments are complete, so their own rule
            # flags can be set (closure propagates through acyclic parts).
            self._push_to_owners(force=True)

    # ------------------------------------------------------------------ push

    def _push_to_owners(
        self, *, force: bool = False, incremental: bool = False
    ) -> None:
        """Push refreshed fragments to every dependant registered in ``owner``.

        This is the second half of A5: when the local database changed (or the
        node just closed), every node that imports data from this node
        receives an updated answer, so new facts keep flowing until no node
        changes any more (the fix-point).

        To keep cascades bounded, a push to a given (rule, requester) pair is
        suppressed when the fragment has not changed since the last push to
        that pair — the "delta optimisation" the paper leaves for future work.
        ``force=True`` (used for the one-off closure notification) overrides
        the suppression so dependants always learn about completeness.

        ``incremental=True`` is the push of an incremental run: each pair
        receives only the rows not yet pushed to it, tagged ``incremental``
        so the receiver joins them as a delta, and pairs with nothing new are
        skipped entirely — which is what terminates the cascade.
        """
        node = self.node
        state = node.state
        pushes = 0
        # Entries whose rules read one body share its maintained fragment, and
        # nothing the loop sends is delivered before it ends: maintain each
        # body once per push.
        maintained_by_body: dict[str, MaintainedFragment] = {}
        for entry in state.update_owner:
            if entry.requester is None or entry.rule_id is None:
                continue
            rule = node.outgoing_rules.get(entry.rule_id)
            if rule is None:
                continue
            body = fragment_body(rule, node.node_id)[0]
            maintained = maintained_by_body.get(body)
            if maintained is None:
                maintained = maintained_by_body[body] = maintain_fragment(node, rule)
            fragment = maintained.rows
            key = (entry.rule_id, entry.requester)
            pushed = state.pushed_fragments.get(key)
            if incremental:
                tuples = fragment - pushed if pushed else fragment
                if not tuples:
                    continue
            elif not force and (pushed is fragment or pushed == fragment):
                continue
            else:
                tuples = fragment
            state.pushed_fragments[key] = fragment
            pushes += 1
            payload = {
                "rule_id": entry.rule_id,
                "source": node.node_id,
                "tuples": tuples,
                "complete": state.state_u == UpdateState.CLOSED,
                "path": (node.node_id,),
            }
            if incremental:
                payload["incremental"] = True
            node.send(
                entry.requester,
                MessageType.ANSWER,
                payload,
                # The whole fragment's modelled size is known; a delta is walked.
                tuples_size=None if incremental else maintained.size,
            )
        if incremental and pushes:
            node.stats.record_incremental(node.node_id, pushes=pushes)
