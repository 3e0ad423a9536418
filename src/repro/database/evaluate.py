"""Evaluation of conjunctive queries over a local database: compiled join plans.

A query body is compiled **once** into a :class:`_Plan` — every body variable
becomes an integer *slot*, every atom a tuple of ``(slot, constant)`` columns
— and the plan is kept on the query it describes
(``ConjunctiveQuery.derived``), so it is shared by every evaluation of that
query and dies with it.  Rules intern their per-source body queries
(:meth:`~repro.coordination.rule.CoordinationRule.body_query_for`), so every
rule with an equal body shares one plan.  One evaluation then

1. binds the plan to the database (missing relation → no answers, arity
   mismatch → :class:`QueryError`),
2. picks a join order *for the data at hand*: the seed atom first when there
   is one, then greedily the atom that can be probed through an index (it
   has a constant or an already-bound variable) before one that has to be
   scanned, smaller relation first — so a delta-seeded join never opens with
   a cross product.  The choice depends on the sizes only through their
   ranking, so it is made once per (seed, size ranking) and looked up after
   that (:meth:`_Plan.order`),
3. looks the order's :class:`_Step` list up (compiled on first use: per atom
   the probe column that goes straight to ``Relation.lookup``, the slots the
   row fills, the equality checks left over, and the built-in comparisons
   that become decidable there), and
4. runs the steps over **one** mutable slot list, building a result object —
   a ``dict`` binding or a projected row — only for complete solutions.

Two evaluation modes share that machinery (see ``docs/incremental.md``):

* **naive** — :func:`evaluate_body` / :func:`evaluate_query` enumerate every
  solution of the full body over the full database.
* **semi-naive** — :func:`evaluate_body_delta` takes a *delta* (rows recently
  inserted into the database) and yields only solutions that touch at least
  one delta row: each body atom whose relation appears in the delta is
  seeded with the delta rows in turn while the remaining atoms join against
  the full database — exactly the derivations that are new since the delta
  was applied, at cost proportional to the delta, not the database.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping
from typing import NamedTuple, Sequence

from repro.database.query import Atom, Comparison, ConjunctiveQuery, Constant
from repro.database.query import Term, Variable
from repro.database.relation import row_picker
from repro.errors import QueryError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.database.database import LocalDatabase
    from repro.database.relation import Relation

Binding = dict[Variable, object]
"""An assignment of the body variables of a query to database values."""

_Emit = Callable[[list], object]
"""Builds the caller's result object from the slot list of one solution."""


def substitute(atom: Atom, binding: Mapping[Variable, object]) -> tuple:
    """Instantiate ``atom`` under ``binding``; every variable must be bound."""
    values = []
    for term in atom.terms:
        if isinstance(term, Constant):
            values.append(term.value)
        else:
            if term not in binding:
                raise QueryError(f"variable {term} of atom {atom} is not bound")
            values.append(binding[term])
    return tuple(values)


def _term(term: Term, slot_of: Mapping[Variable, int]) -> tuple[int, object]:
    """A term as ``(slot, constant)``, slot -1 for a constant."""
    return (-1, term.value) if isinstance(term, Constant) else (slot_of[term], None)


def compile_comparisons(
    comparisons: Iterable[Comparison], slot_of: Mapping[Variable, int]
) -> tuple[tuple, ...]:
    """Built-ins as ``(evaluate, left slot, left constant, right slot, right
    constant)`` for :func:`comparisons_hold`."""
    return tuple(
        (c.evaluate, *_term(c.left, slot_of), *_term(c.right, slot_of))
        for c in comparisons
    )


def comparisons_hold(comparisons: tuple[tuple, ...], slots: Sequence) -> bool:
    """Compiled built-ins under ``slots`` (anything indexable by slot)."""
    for evaluate, left, left_value, right, right_value in comparisons:
        if not evaluate(
            slots[left] if left >= 0 else left_value,
            slots[right] if right >= 0 else right_value,
        ):
            return False
    return True


class _Step(NamedTuple):
    """One atom of a join order, compiled against the slots bound before it."""

    atom: int
    #: Index probe ``(column, slot, constant)``, or None: scan the relation
    #: (or, for the seed step, take the rows handed in).
    probe: tuple[int, int, object] | None
    #: ``(column, slot)``: the variables this atom binds.
    assigns: tuple[tuple[int, int], ...]
    #: ``(column, slot, constant)``: what else the row must equal.  Checked
    #: after the assignments, which makes a variable repeated inside the atom
    #: an ordinary check against its own slot.
    checks: tuple[tuple[int, int, object], ...]
    #: The compiled built-ins whose operands are all bound once this step
    #: matched.
    comparisons: tuple[tuple, ...]


class _Plan:
    """A query body over slots; holds no reference to the query itself."""

    __slots__ = ("variables", "slot_of", "atoms", "comparisons", "orders", "steps")

    def __init__(self, query: ConjunctiveQuery):
        self.variables = query.body_variables
        self.slot_of = {variable: slot for slot, variable in enumerate(self.variables)}
        self.atoms = tuple(
            (atom.relation, tuple(_term(term, self.slot_of) for term in atom.terms))
            for atom in query.body
        )
        self.comparisons = compile_comparisons(query.comparisons, self.slot_of)
        #: (seed, size ranking) -> greedy join order.
        self.orders: dict[tuple[int | None, tuple[int, ...]], tuple[int, ...]] = {}
        #: (seeded, atom order) -> compiled steps.
        self.steps: dict[tuple[bool, tuple[int, ...]], tuple[_Step, ...]] = {}

    def bind(self, database: "LocalDatabase") -> list["Relation"] | None:
        """The relation behind each atom, or None when one is missing.

        Missing relations are treated as empty (a node may receive a query
        about a relation it does not store; the paper's mediator nodes have
        no LDB at all), so the whole conjunction has no answers.
        """
        relations: list["Relation"] = []
        for name, terms in self.atoms:
            if name not in database:
                continue
            relation = database.relation(name)
            if relation.schema.arity != len(terms):
                raise QueryError(
                    f"an atom over {name!r} has arity {len(terms)} but the "
                    f"relation has arity {relation.schema.arity}"
                )
            relations.append(relation)
        return relations if len(relations) == len(self.atoms) else None

    def order(
        self, relations: Sequence["Relation"], seed: int | None = None
    ) -> tuple[int, ...]:
        """:meth:`greedy`'s join order for the current relation sizes,
        computed once per *size ranking*.

        The greedy choice compares two atoms' relations only by (size, atom
        index), so together with the seed and the plan's static probe
        structure the stable argsort of the sizes decides it: the order
        cached under ``(seed, ranking)`` is the one :meth:`greedy` would pick.
        """
        sizes = [len(relation) for relation in relations]
        ranking = tuple(sorted(range(len(sizes)), key=sizes.__getitem__))
        order = self.orders.get((seed, ranking))
        if order is None:
            order = self.orders[seed, ranking] = self.greedy(sizes, seed)
        return order

    def greedy(self, sizes: Sequence[int], seed: int | None = None) -> tuple[int, ...]:
        """Greedy join order for relations of ``sizes`` (module docstring),
        without the cache."""
        remaining = list(range(len(self.atoms)))
        order: list[int] = []
        bound: set[int] = set()

        def cost(index: int) -> tuple[bool, bool, int]:
            scanned = all(
                slot >= 0 and slot not in bound for slot, _ in self.atoms[index][1]
            )
            return (index != seed, scanned, sizes[index])

        while remaining:
            chosen = min(remaining, key=cost)
            remaining.remove(chosen)
            order.append(chosen)
            bound.update(slot for slot, _ in self.atoms[chosen][1])
            seed = None  # only the first pick prefers the seed
        return tuple(order)

    def compile(self, order: tuple[int, ...], seeded: bool) -> tuple[_Step, ...]:
        """The steps of ``order``; with ``seeded`` the first atom's rows are
        handed in by the caller, so it probes nothing and checks everything."""
        steps = self.steps.get((seeded, order))
        if steps is not None:
            return steps
        bound = {-1}
        unscheduled = list(self.comparisons)
        compiled: list[_Step] = []
        for index in order:
            probe: tuple[int, int, object] | None = None
            assigns: list[tuple[int, int]] = []
            checks: list[tuple[int, int, object]] = []
            fresh: set[int] = set()
            for column, (slot, value) in enumerate(self.atoms[index][1]):
                if slot not in bound and slot not in fresh:
                    fresh.add(slot)
                    assigns.append((column, slot))
                elif probe is None and slot in bound and (compiled or not seeded):
                    probe = (column, slot, value)
                else:
                    checks.append((column, slot, value))
            bound |= fresh
            ready = [c for c in unscheduled if c[1] in bound and c[3] in bound]
            unscheduled = [c for c in unscheduled if c not in ready]
            compiled.append(
                _Step(index, probe, tuple(assigns), tuple(checks), tuple(ready))
            )
        steps = self.steps[seeded, order] = tuple(compiled)
        return steps

    def emitter(self, columns: Sequence[Variable] | None) -> _Emit:
        """What a solution is handed out as: a dict, or a row over ``columns``."""
        if columns is None:
            variables = self.variables
            return lambda slots: dict(zip(variables, slots))
        if tuple(columns) == self.variables:
            return tuple
        try:
            picked = [self.slot_of[variable] for variable in columns]
        except KeyError as error:
            raise QueryError(
                f"variable {error.args[0]} does not occur in the query body"
            ) from None
        return row_picker(picked)


def _plan(query: ConjunctiveQuery) -> _Plan:
    plan = query.derived.get("plan")
    if plan is None:
        plan = query.derived["plan"] = _Plan(query)
    return plan


def _candidates(
    step: _Step, relations: Sequence["Relation"], slots: list
) -> Iterator[tuple]:
    relation = relations[step.atom]
    if step.probe is None:
        return relation.scan()
    column, slot, value = step.probe
    return relation.lookup(column, slots[slot] if slot >= 0 else value)


def _solve(
    steps: tuple[_Step, ...],
    relations: Sequence["Relation"],
    slots: list,
    rows: Iterable[tuple],
    emit: _Emit,
) -> Iterator:
    """Yield ``emit(slots)`` for every way of matching all ``steps``.

    ``rows`` are the first step's candidates; every later step draws its own
    from its relation under the slots bound so far.  Backtracking is a stack
    of candidate iterators, one per step in progress.
    """
    last = len(steps) - 1
    stack = [iter(rows)]
    while stack:
        depth = len(stack) - 1
        _, _, assigns, checks, comparisons = steps[depth]
        for row in stack[depth]:
            for column, slot in assigns:
                slots[slot] = row[column]
            if checks and not all(
                row[column] == (slots[slot] if slot >= 0 else value)
                for column, slot, value in checks
            ):
                continue
            if comparisons and not comparisons_hold(comparisons, slots):
                continue
            if depth == last:
                yield emit(slots)
            else:
                stack.append(_candidates(steps[depth + 1], relations, slots))
                break
        else:
            stack.pop()


def evaluate_body(
    database: "LocalDatabase",
    query: ConjunctiveQuery,
    columns: Sequence[Variable] | None = None,
) -> Iterator:
    """Iterate over every solution of the query body.

    A solution is handed out as a fresh :data:`Binding` of all body
    variables, or — with ``columns`` — as the row of those variables' values
    (what :func:`evaluate_query` and the fragment functions of
    :mod:`repro.core.update` collect into sets).
    """
    plan = _plan(query)
    relations = plan.bind(database)
    if relations is None:
        return iter(())
    steps = plan.compile(plan.order(relations), seeded=False)
    slots: list = [None] * len(plan.variables)
    rows = _candidates(steps[0], relations, slots)
    return _solve(steps, relations, slots, rows, plan.emitter(columns))


def evaluate_body_delta(
    database: "LocalDatabase",
    query: ConjunctiveQuery,
    delta: Mapping[str, Iterable[tuple]],
    columns: Sequence[Variable] | None = None,
) -> Iterator:
    """Semi-naive evaluation: yield only solutions that touch a delta row.

    ``delta`` maps relation names to rows recently *inserted* into
    ``database`` (the rows must already be present — this restricts the
    search, it does not extend the database).  Each body atom whose relation
    appears in the delta is used as the seed in turn: the atom is bound to
    the delta rows only, and the remaining atoms join against the full
    database.  Any derivation that is new since the delta was applied uses
    at least one delta row, so the union over seed atoms covers exactly the
    new derivations.  A solution joining several delta rows is yielded once
    per seed atom it matches — callers accumulate answers into sets, so the
    duplicates are harmless and the single pass stays cheap.  ``columns`` is
    as for :func:`evaluate_body`.
    """
    delta_rows = {name: tuple(rows) for name, rows in delta.items()}
    plan = _plan(query)
    relations = plan.bind(database)
    if relations is None:
        return
    emit = plan.emitter(columns)
    slots: list = [None] * len(plan.variables)
    for seed, (name, terms) in enumerate(plan.atoms):
        rows = delta_rows.get(name)
        if not rows:
            continue
        for row in rows:
            if len(row) != len(terms):
                raise QueryError(
                    f"delta row {row!r} does not match the arity of the "
                    f"atom over {name!r}"
                )
        steps = plan.compile(plan.order(relations, seed), seeded=True)
        yield from _solve(steps, relations, slots, rows, emit)


def evaluate_query(database: "LocalDatabase", query: ConjunctiveQuery) -> set[tuple]:
    """Evaluate a conjunctive query and return the set of answer tuples.

    For a query with a head, the answers are the head instantiations projected
    on the *distinguished* variables (existential head variables are not part
    of the answer — the receiver of the answer invents nulls for them).  For a
    body-only query the answers are the bindings of all body variables in
    order of first occurrence.
    """
    if query.head is not None:
        projection = query.distinguished_variables
    else:
        projection = query.body_variables
    return set(evaluate_body(database, query, projection))
