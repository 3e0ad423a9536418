"""Differential test: the compiled join plans against a brute-force evaluator.

The reference below is a nested loop over the cross product of the body
atoms' relations, written here from the definition of a conjunctive query —
it shares no code with :mod:`repro.database.evaluate` (not even
``Comparison.evaluate``).  Generated queries cover repeated variables inside
one atom, constants, self-joins, relations the database does not have, atoms
of the wrong arity, and comparisons over integers, strings and labelled
nulls, including the rule that an ordered comparison between incomparable
types is simply false.  Bodies are also evaluated as rules intern them —
one query, plan and order cache shared by every rule with that body — and
the join order cached per size ranking is checked against the greedy choice
recomputed from the sizes themselves.
"""

import itertools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coordination.rule import CoordinationRule
from repro.database.database import LocalDatabase
from repro.database.evaluate import (
    _plan,
    evaluate_body,
    evaluate_body_delta,
    evaluate_query,
)
from repro.database.nulls import LabeledNull
from repro.database.query import (
    Atom,
    Comparison,
    ConjunctiveQuery,
    Constant,
    Variable,
)
from repro.database.schema import DatabaseSchema, RelationSchema
from repro.errors import QueryError

ARITIES = {"r": 2, "s": 2, "t": 3}
VARIABLES = [Variable(name) for name in "XYZW"]
OPERATORS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

constants = st.one_of(st.integers(0, 3), st.sampled_from(["a", "b", "c"]))
values = st.one_of(
    constants, st.sampled_from([LabeledNull("n0"), LabeledNull("n1")])
)
terms = st.one_of(
    st.sampled_from(VARIABLES), st.sampled_from(VARIABLES), constants.map(Constant)
)


def rows_of(arity):
    return st.frozensets(st.tuples(*[values] * arity), max_size=7)


databases = st.fixed_dictionaries({name: rows_of(n) for name, n in ARITIES.items()})


@st.composite
def atoms(draw):
    relation = draw(st.sampled_from(["r", "r", "s", "t", "absent"]))
    arity = ARITIES.get(relation, 2)
    if draw(st.integers(0, 19)) == 0:
        arity += 1  # an atom that does not fit its relation
    return Atom(relation, draw(st.lists(terms, min_size=arity, max_size=arity)))


@st.composite
def queries(draw):
    body = draw(st.lists(atoms(), min_size=1, max_size=3))
    bound = sorted({v for atom in body for v in atom.variables}, key=str)
    operands = constants.map(Constant)
    if bound:
        operands = st.one_of(operands, st.sampled_from(bound))
    comparison = st.builds(
        Comparison, st.sampled_from(sorted(OPERATORS)), operands, operands
    )
    comparisons = draw(st.lists(comparison, max_size=2))
    return ConjunctiveQuery(None, body, comparisons)


def database_of(facts):
    database = LocalDatabase(
        DatabaseSchema(
            RelationSchema(name, [f"c{i}" for i in range(arity)])
            for name, arity in ARITIES.items()
        )
    )
    for name, rows in facts.items():
        database.insert_many(name, rows)
    return database


def variables_of(query):
    seen = []
    for atom in query.body:
        for term in atom.terms:
            if isinstance(term, Variable) and term not in seen:
                seen.append(term)
    return seen


def brute_force(facts, query, delta=None):
    """Every solution as a tuple over ``variables_of(query)``.

    With ``delta``, only the solutions that use a delta row for at least one
    atom.  Raises QueryError when an atom does not fit a relation the
    database has; a relation it does not have is empty.
    """
    for atom in query.body:
        if atom.relation in ARITIES and ARITIES[atom.relation] != len(atom.terms):
            raise QueryError(f"arity of {atom}")
    variables = variables_of(query)
    solutions = set()
    for combination in itertools.product(
        *(sorted(facts.get(atom.relation, ()), key=repr) for atom in query.body)
    ):
        binding = {}
        consistent = True
        for atom, row in zip(query.body, combination):
            for term, value in zip(atom.terms, row):
                if isinstance(term, Constant):
                    consistent = consistent and term.value == value
                elif term in binding:
                    consistent = consistent and binding[term] == value
                else:
                    binding[term] = value
        if not consistent:
            continue

        def value_of(term):
            return term.value if isinstance(term, Constant) else binding[term]

        def holds(comparison):
            try:
                return bool(
                    OPERATORS[comparison.operator](
                        value_of(comparison.left), value_of(comparison.right)
                    )
                )
            except TypeError:
                return False

        if not all(holds(comparison) for comparison in query.comparisons):
            continue
        if delta is not None and not any(
            row in delta.get(atom.relation, ())
            for atom, row in zip(query.body, combination)
        ):
            continue
        solutions.add(tuple(binding[variable] for variable in variables))
    return solutions


def outcome(function):
    """The function's result, or the fact that it refused the query."""
    try:
        return function()
    except QueryError:
        return "QueryError"


@settings(max_examples=300, deadline=None)
@given(query=queries(), first=databases, second=databases)
def test_plan_agrees_with_brute_force(query, first, second):
    variables = variables_of(query)
    # The same query object against two databases in turn: the plan is
    # compiled once, the join order is chosen per database.
    for facts in (first, second):
        database = database_of(facts)
        expected = outcome(lambda: brute_force(facts, query))
        as_bindings = outcome(
            lambda: {
                tuple(binding[variable] for variable in variables)
                for binding in evaluate_body(database, query)
            }
        )
        as_rows = outcome(lambda: set(evaluate_body(database, query, variables)))
        assert as_bindings == expected
        assert as_rows == expected
        assert outcome(lambda: evaluate_query(database, query)) == expected


@settings(max_examples=200, deadline=None)
@given(query=queries(), facts=databases, data=st.data())
def test_projection_and_head_agree_with_brute_force(query, facts, data):
    variables = variables_of(query)
    picked = []
    if variables:
        picked = data.draw(st.lists(st.sampled_from(variables), max_size=4))
    database = database_of(facts)
    expected = outcome(
        lambda: {
            tuple(solution[variables.index(variable)] for variable in picked)
            for solution in brute_force(facts, query)
        }
    )
    assert outcome(lambda: set(evaluate_body(database, query, picked))) == expected
    # A head over some body variables and an existential one: the answers
    # are the distinct distinguished variables, in head order.
    distinguished = list(dict.fromkeys(picked))
    head = Atom("q", distinguished + [Variable("Fresh")])
    with_head = ConjunctiveQuery(head, query.body, query.comparisons)
    expected_answers = outcome(
        lambda: {
            tuple(solution[variables.index(variable)] for variable in distinguished)
            for solution in brute_force(facts, query)
        }
    )
    assert outcome(lambda: evaluate_query(database, with_head)) == expected_answers


@settings(max_examples=300, deadline=None)
@given(query=queries(), facts=databases, data=st.data())
def test_delta_seeding_agrees_with_brute_force(query, facts, data):
    delta = {
        name: data.draw(st.frozensets(st.sampled_from(sorted(rows, key=repr))))
        for name, rows in facts.items()
        if rows
    }
    variables = variables_of(query)
    database = database_of(facts)
    expected = outcome(lambda: brute_force(facts, query, delta))
    assert (
        outcome(lambda: set(evaluate_body_delta(database, query, delta, variables)))
        == expected
    )
    assert (
        outcome(
            lambda: {
                tuple(binding[variable] for variable in variables)
                for binding in evaluate_body_delta(database, query, delta)
            }
        )
        == expected
    )
    # Semi-naive completeness: what held without the delta rows, plus what
    # the delta evaluation finds, is what holds now.
    if expected != "QueryError":
        before = {
            name: rows - delta.get(name, frozenset()) for name, rows in facts.items()
        }
        assert brute_force(before, query) | expected == brute_force(facts, query)


@settings(max_examples=200, deadline=None)
@given(query=queries(), first=databases, second=databases, data=st.data())
def test_interned_bodies_agree_with_brute_force(query, first, second, data):
    variables = variables_of(query)

    def rule_at(rule_id, source):
        body = [(source, atom) for atom in query.body]
        return CoordinationRule(
            rule_id, "a", Atom("h", variables), body, query.comparisons
        )

    rules = [rule_at("one", "b"), rule_at("two", "c")]
    interned = rules[0].body_query_for("b")
    assert rules[1].body_query_for("c") is interned
    assert interned == query
    # Two rules, one plan, evaluated against two databases in turn.
    for rule, facts in zip(rules, (first, second)):
        body = rule.body_query_for(rule.sources[0])
        database = database_of(facts)
        delta = {
            name: data.draw(st.frozensets(st.sampled_from(sorted(rows, key=repr))))
            for name, rows in facts.items()
            if rows
        }
        assert outcome(
            lambda: set(evaluate_body(database, body, variables))
        ) == outcome(lambda: brute_force(facts, query))
        assert outcome(
            lambda: set(evaluate_body_delta(database, body, delta, variables))
        ) == outcome(lambda: brute_force(facts, query, delta))


@settings(max_examples=300, deadline=None)
@given(query=queries(), data=st.data())
def test_cached_order_is_the_greedy_order(query, data):
    plan = _plan(query)
    atoms = len(query.body)
    for _ in range(data.draw(st.integers(1, 8))):
        # Small sizes: ties, which the ranking breaks by atom index.
        sizes = data.draw(st.lists(st.integers(0, 3), min_size=atoms, max_size=atoms))
        seed = data.draw(st.one_of(st.none(), st.integers(0, atoms - 1)))
        relations = [range(size) for size in sizes]
        assert plan.order(relations, seed) == plan.greedy(sizes, seed)


def test_unknown_projection_variable_is_refused():
    database = database_of({"r": {(1, 2)}})
    query = ConjunctiveQuery(None, [Atom("r", [Variable("X"), Variable("Y")])])
    with pytest.raises(QueryError):
        list(evaluate_body(database, query, [Variable("Nope")]))
