"""An independent fix-point oracle: brute-force queries and a chase.

Both halves are written from the definitions and share no code with what
they check: nothing here imports :mod:`repro.database.evaluate`,
:mod:`repro.database.database`, :mod:`repro.core` or :mod:`repro.baselines`
(only the query and null value types, and ``QueryError``).

* :func:`brute_force` answers a conjunctive query by trying the rows of
  each body atom in turn and keeping every consistent binding that
  satisfies the comparisons.
* :func:`chase` closes a network's facts under coordination rules with the
  semi-oblivious chase: each rule fires once per binding of its frontier
  (the head variables its body binds), inventing one labelled null per
  existential head variable and frontier binding, until no firing adds a
  row.  It terminates on weakly acyclic rule sets.

The engine runs a restricted chase instead (its step A6 skips a firing that
a row already there covers), so the two closures may differ in their rows
with nulls.  Both are universal models, so their :func:`ground` parts are
equal, as long as no comparison reads a null.
"""

import operator

from repro.database.nulls import LabeledNull, is_null
from repro.database.query import Constant, Variable
from repro.errors import QueryError

OPERATORS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def variables_of(query):
    """The body variables of ``query`` in order of first occurrence."""
    seen = []
    for atom in query.body:
        for term in atom.terms:
            if isinstance(term, Variable) and term not in seen:
                seen.append(term)
    return seen


def holds(comparison, binding):
    """Whether ``comparison`` holds under ``binding``; an ordered comparison
    between incomparable types is false."""

    def value_of(term):
        return term.value if isinstance(term, Constant) else binding[term]

    try:
        return bool(
            OPERATORS[comparison.operator](
                value_of(comparison.left), value_of(comparison.right)
            )
        )
    except TypeError:
        return False


def matches(body, comparisons):
    """Each ``(binding, rows)`` that maps every ``(atom, rows)`` pair of
    ``body`` into one of its rows, consistently, and satisfies every
    comparison; ``rows`` are the rows picked, one per atom."""

    def extend(index, binding, picked):
        if index == len(body):
            if all(holds(comparison, binding) for comparison in comparisons):
                yield binding, picked
            return
        atom, rows = body[index]
        for row in rows:
            bound = dict(binding)
            consistent = True
            for term, value in zip(atom.terms, row):
                if isinstance(term, Constant):
                    consistent = term.value == value
                else:
                    consistent = bound.setdefault(term, value) == value
                if not consistent:
                    break
            if consistent:
                yield from extend(index + 1, bound, (*picked, row))

    return extend(0, {}, ())


def brute_force(facts, query, delta=None, *, arities=None):
    """Every solution of ``query`` over ``facts`` (relation name -> rows),
    as a tuple over :func:`variables_of`.

    With ``delta``, only the solutions that use a delta row for at least
    one atom.  A relation ``facts`` lacks is empty; with ``arities``
    (relation name -> arity), an atom that does not fit a relation named
    there raises QueryError.
    """
    for atom in query.body:
        if arities and arities.get(atom.relation, len(atom.terms)) != len(atom.terms):
            raise QueryError(f"arity of {atom}")
    variables = variables_of(query)
    body = [(atom, facts.get(atom.relation, ())) for atom in query.body]
    return {
        tuple(binding[variable] for variable in variables)
        for binding, rows in matches(body, query.comparisons)
        if delta is None
        or any(row in delta.get(a.relation, ()) for a, row in zip(query.body, rows))
    }


def firings(rule, facts):
    """The head rows ``rule`` derives from ``facts`` (node -> relation ->
    rows), one per frontier binding."""
    body = [
        (atom, facts.get(node, {}).get(atom.relation, ())) for node, atom in rule.body
    ]
    bound = {variable for _node, atom in rule.body for variable in atom.variables}
    frontier = sorted(
        {term for term in rule.head.terms if term in bound}, key=lambda term: term.name
    )
    rows = set()
    for binding, _picked in matches(body, rule.comparisons):
        key = tuple(binding[variable] for variable in frontier)
        rows.add(
            tuple(
                term.value
                if isinstance(term, Constant)
                else binding[term]
                if term in bound
                else LabeledNull(f"chase/{rule.rule_id}/{term.name}{key!r}")
                for term in rule.head.terms
            )
        )
    return rows


def chase(rules, facts):
    """The closure of ``facts`` (node -> relation -> rows) under ``rules``,
    as node -> relation -> set of rows."""
    closure = {
        node: {name: set(rows) for name, rows in relations.items()}
        for node, relations in facts.items()
    }
    grew = True
    while grew:
        grew = False
        for rule in rules:
            at_target = closure.setdefault(rule.target, {})
            rows = at_target.setdefault(rule.head.relation, set())
            fresh = firings(rule, closure) - rows
            rows |= fresh
            grew = grew or bool(fresh)
    return closure


def ground(facts):
    """Node -> relation -> the rows without a null, empty relations left out."""
    return {
        node: {
            name: kept
            for name, rows in relations.items()
            if (kept := frozenset(row for row in rows if not any(map(is_null, row))))
        }
        for node, relations in facts.items()
    }
