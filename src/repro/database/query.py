"""Conjunctive-query abstract syntax.

The paper's coordination rules "may contain conjunctive queries in both the
head and body (without any safety assumption and possibly with built-in
predicates)".  This module provides the corresponding AST:

* :class:`Variable` / :class:`Constant` — terms,
* :class:`Atom` — a relational atom ``r(t1, ..., tk)``,
* :class:`Comparison` — a built-in predicate such as ``X != Y`` or ``X < 3``,
* :class:`ConjunctiveQuery` — a head atom, a list of body atoms and a list of
  built-ins, with helpers for variable classification (distinguished,
  existential).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Iterable, Union

from repro.errors import QueryError


@dataclass(frozen=True)
class Variable:
    """A query variable.  Variables start with an upper-case letter by convention."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Constant:
    """A constant term (string or integer) shared by all peers (the paper's URIs)."""

    value: Union[str, int]

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)


Term = Union[Variable, Constant]


def constant_types(terms: Iterable[Term]) -> tuple[type, ...]:
    """The type of every constant among ``terms``, in order.

    ``Constant(1) == Constant(True)`` (and they hash alike), but a head emits
    the constant itself, so a key for what is compiled from terms carries
    these types next to the terms.
    """
    return tuple(type(term.value) for term in terms if isinstance(term, Constant))


#: Comparison operators supported in built-in predicates.
COMPARISON_OPERATORS = ("!=", "<=", ">=", "=", "<", ">")


@dataclass(frozen=True)
class Atom:
    """A relational atom ``relation(term, ..., term)``."""

    relation: str
    terms: tuple[Term, ...]

    def __init__(self, relation: str, terms: Iterable[Term]):
        terms = tuple(terms)
        if not relation:
            raise QueryError("atom needs a relation name")
        for term in terms:
            if not isinstance(term, (Variable, Constant)):
                raise QueryError(f"invalid term {term!r} in atom {relation!r}")
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "terms", terms)

    @property
    def arity(self) -> int:
        """Number of terms of the atom."""
        return len(self.terms)

    @property
    def variables(self) -> tuple[Variable, ...]:
        """The variables of the atom, in order of first occurrence."""
        seen: list[Variable] = []
        for term in self.terms:
            if isinstance(term, Variable) and term not in seen:
                seen.append(term)
        return tuple(seen)

    def __str__(self) -> str:
        rendered = ", ".join(str(term) for term in self.terms)
        return f"{self.relation}({rendered})"


@dataclass(frozen=True)
class Comparison:
    """A built-in comparison predicate between two terms."""

    operator: str
    left: Term
    right: Term

    def __post_init__(self) -> None:
        if self.operator not in COMPARISON_OPERATORS:
            raise QueryError(f"unsupported comparison operator {self.operator!r}")

    @property
    def variables(self) -> tuple[Variable, ...]:
        """Variables mentioned by the comparison."""
        result = []
        for term in (self.left, self.right):
            if isinstance(term, Variable) and term not in result:
                result.append(term)
        return tuple(result)

    def evaluate(self, left_value: object, right_value: object) -> bool:
        """Apply the operator to two concrete values.

        Ordered comparisons between values of incomparable types evaluate to
        False instead of raising, because labelled nulls may flow into
        built-ins when rules chain; equality and inequality always work.
        """
        if self.operator == "=":
            return left_value == right_value
        if self.operator == "!=":
            return left_value != right_value
        try:
            if self.operator == "<":
                return left_value < right_value  # type: ignore[operator]
            if self.operator == "<=":
                return left_value <= right_value  # type: ignore[operator]
            if self.operator == ">":
                return left_value > right_value  # type: ignore[operator]
            return left_value >= right_value  # type: ignore[operator]
        except TypeError:
            return False

    def __str__(self) -> str:
        return f"{self.left} {self.operator} {self.right}"


def field_state(instance) -> dict:
    """Pickled state of a frozen dataclass: its fields, without cached values.

    What is memoised in the instance ``__dict__`` is rebuilt on demand after
    unpickling, so it is not shipped (rule sets go to every shard worker).
    """
    return {f.name: getattr(instance, f.name) for f in fields(instance)}


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A conjunctive query: ``head :- body_atoms, comparisons``.

    ``head`` may be ``None`` for a boolean/body-only query (used internally
    when a node only needs the satisfying bindings of a body).

    Immutable, so what is derived from it is computed once per instance
    (``cached_property`` stores into the instance ``__dict__``): none of that
    is a field, so ``==``, ``hash`` and ``repr`` do not see it, and
    :func:`field_state` keeps it out of pickles.
    """

    head: Atom | None
    body: tuple[Atom, ...]
    comparisons: tuple[Comparison, ...] = field(default=())

    def __init__(
        self,
        head: Atom | None,
        body: Iterable[Atom],
        comparisons: Iterable[Comparison] = (),
    ):
        body = tuple(body)
        comparisons = tuple(comparisons)
        if not body:
            raise QueryError("conjunctive query needs at least one body atom")
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "comparisons", comparisons)
        # Built-ins must only mention variables that occur in some body atom,
        # otherwise they can never be evaluated.
        body_vars = set(self.body_variables)
        for comparison in comparisons:
            for variable in comparison.variables:
                if variable not in body_vars:
                    raise QueryError(
                        f"comparison {comparison} uses variable {variable} "
                        "that does not occur in the body"
                    )

    __getstate__ = field_state

    @cached_property
    def body_variables(self) -> tuple[Variable, ...]:
        """Variables occurring in body atoms, in order of first occurrence."""
        seen: list[Variable] = []
        for atom in self.body:
            for variable in atom.variables:
                if variable not in seen:
                    seen.append(variable)
        return tuple(seen)

    @cached_property
    def head_variables(self) -> tuple[Variable, ...]:
        """Variables occurring in the head (empty for body-only queries)."""
        if self.head is None:
            return ()
        return self.head.variables

    @cached_property
    def distinguished_variables(self) -> tuple[Variable, ...]:
        """Head variables that are bound by the body (universally quantified)."""
        body_vars = set(self.body_variables)
        return tuple(v for v in self.head_variables if v in body_vars)

    @cached_property
    def existential_variables(self) -> tuple[Variable, ...]:
        """Head variables not bound by the body (the paper's existentials)."""
        body_vars = set(self.body_variables)
        return tuple(v for v in self.head_variables if v not in body_vars)

    @cached_property
    def derived(self) -> dict:
        """Where other layers keep what they compile from this query.

        :mod:`repro.database.evaluate` hangs its join plan here, so a plan
        lives exactly as long as the query it describes.  Values must not
        refer back to the query: a dropped query is freed by reference count.
        """
        return {}

    @cached_property
    def relations(self) -> tuple[str, ...]:
        """Names of the relations mentioned in the body, without duplicates."""
        seen: list[str] = []
        for atom in self.body:
            if atom.relation not in seen:
                seen.append(atom.relation)
        return tuple(seen)

    def __str__(self) -> str:
        body = ", ".join(str(atom) for atom in self.body)
        if self.comparisons:
            body += ", " + ", ".join(str(c) for c in self.comparisons)
        head = str(self.head) if self.head is not None else "()"
        return f"{head} :- {body}"
