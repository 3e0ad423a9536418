"""Relation and database schemas.

The paper's node architecture (Figure 2) distinguishes the local database
(LDB) from the *database schema* (DBS), the part of the schema a node shares
with the network.  A node may even have no LDB at all and act purely as a
mediator, but "DBS must always be specified in order to allow a node to
participate on the network".  This module models both levels:

* :class:`RelationSchema` — a named relation with ordered, named attributes,
* :class:`DatabaseSchema` — the collection of relation schemas a node exposes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from repro.errors import SchemaError


@dataclass(frozen=True)
class Attribute:
    """A single attribute of a relation schema.

    ``dtype`` is advisory ("str", "int", ...): the engine stores Python values
    and labelled nulls and does not enforce types, mirroring the loose typing
    of the paper's prototype, but the information is kept for documentation
    and for the synthetic data generators.
    """

    name: str
    dtype: str = "str"

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid attribute name: {self.name!r}")


@dataclass(frozen=True)
class RelationSchema:
    """A named relation with an ordered tuple of attributes."""

    name: str
    attributes: tuple[Attribute, ...]

    def __init__(self, name: str, attributes: Iterable[Attribute | str]):
        if not name or not name.replace("_", "").isalnum():
            raise SchemaError(f"invalid relation name: {name!r}")
        attrs = tuple(
            attr if isinstance(attr, Attribute) else Attribute(attr)
            for attr in attributes
        )
        if not attrs:
            raise SchemaError(f"relation {name!r} must have at least one attribute")
        seen: set[str] = set()
        for attr in attrs:
            if attr.name in seen:
                raise SchemaError(
                    f"duplicate attribute {attr.name!r} in relation {name!r}"
                )
            seen.add(attr.name)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "attributes", attrs)

    @cached_property
    def arity(self) -> int:
        """Number of attributes (computed once: every lookup and chase reads it)."""
        return len(self.attributes)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """Attribute names in schema order."""
        return tuple(attr.name for attr in self.attributes)

    def index_of(self, attribute_name: str) -> int:
        """Return the position of ``attribute_name`` in the schema.

        Raises :class:`SchemaError` if the attribute does not exist.
        """
        for position, attr in enumerate(self.attributes):
            if attr.name == attribute_name:
                return position
        raise SchemaError(
            f"relation {self.name!r} has no attribute {attribute_name!r}"
        )

    def validate_tuple(self, values: tuple) -> tuple:
        """Check that ``values`` matches the arity of the schema.

        Returns the tuple unchanged so the call can be used inline.
        """
        if len(values) != self.arity:
            raise SchemaError(
                f"tuple {values!r} has arity {len(values)}, "
                f"relation {self.name!r} expects {self.arity}"
            )
        return values

    def __str__(self) -> str:
        attrs = ", ".join(self.attribute_names)
        return f"{self.name}({attrs})"


class DatabaseSchema:
    """The set of relation schemas a peer exposes to the network (DBS)."""

    def __init__(self, relations: Iterable[RelationSchema] = ()):
        self._relations: dict[str, RelationSchema] = {}
        for relation in relations:
            self.add(relation)

    def add(self, relation: RelationSchema) -> None:
        """Register a relation schema; duplicate names are an error."""
        if relation.name in self._relations:
            raise SchemaError(f"relation {relation.name!r} already in schema")
        self._relations[relation.name] = relation

    def get(self, name: str) -> RelationSchema:
        """Return the schema of relation ``name`` or raise :class:`SchemaError`."""
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[RelationSchema]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    @property
    def relation_names(self) -> tuple[str, ...]:
        """Names of all relations, in insertion order."""
        return tuple(self._relations)

    def as_mapping(self) -> Mapping[str, RelationSchema]:
        """A read-only view of the name → schema mapping."""
        return dict(self._relations)

    def __str__(self) -> str:
        return "; ".join(str(rel) for rel in self)

    def __repr__(self) -> str:
        return f"DatabaseSchema({list(self._relations)})"
