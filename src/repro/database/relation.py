"""Set-semantics relations over immutable tuples.

A :class:`Relation` is the extension of one relation schema at one peer.  The
engine uses set semantics (the paper's update step only inserts a tuple when
its projection is not already present), keeps insertion cheap, and maintains
simple hash indexes on demand so that the join plans of
:mod:`repro.database.evaluate` do not degrade to nested loops on the larger
DBLP-sized workloads.

A relation also says *how* it changed, which lets a reader maintain what it
derived from it instead of recomputing (:func:`repro.core.update.maintain_fragment`,
model in ``docs/incremental.md``): rows are kept in insertion order, so "the
rows added since I last looked" is :meth:`Relation.newest`, and
:attr:`Relation.removals` counts the changes that are not insertions
(``delete``, ``clear`` — a replace is a clear plus inserts).  While
``removals`` stands still, the relation has only grown.  :meth:`Relation.mark`
and :meth:`Relation.since` are that test written once, for readers that
remember one relation at a time (the warm pools' cursors on both sides of the
coordinator↔worker boundary).  ``since`` also names the rows a ``delete``
took: each row remembers the mark *epoch* it was inserted in, and a short log
keeps the rows deleted lately, so a row deleted and put back — or inserted
and deleted — between two reads nets to nothing.

Which relations a reader has to ask at all is :class:`Touched`: a relation
attached to a system reports itself there on its first change after any
reader's read, so a reader that remembers marks on every relation visits only
the ones written since its last visit (``docs/incremental.md``).
"""

from __future__ import annotations

from collections import defaultdict
from itertools import islice
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from repro.database.schema import RelationSchema
from repro.errors import SchemaError

Row = tuple
"""A database tuple; values are strings, ints or :class:`LabeledNull`."""

Mark = tuple["Relation", int, int, int]
"""What a reader saw of a relation: the object, its ``removals``, its row count
and its epoch (rows inserted later carry a larger one)."""


#: How many deletes the log keeps beyond the relation's row count: enough that
#: emptying a small relation between two reads still names its rows.
_LOG_SLACK = 16

#: What :meth:`Relation.since` answers for a relation that did not move.
_UNMOVED: tuple[tuple[Row, ...], tuple[Row, ...]] = ((), ())


class Touched:
    """The relations of one system written since a reader's read.

    A relation attached with :meth:`Relation.attach` reports its key on its
    first change of each *generation*; every :meth:`read` starts a new one,
    so a relation reports at most once between two reads, whoever the reader.
    The log keeps one entry per key, the latest report last; a reader asks
    :meth:`since` for the keys reported from the generation its previous read
    returned.  It holds at most one entry per relation of the system.
    """

    __slots__ = ("generation", "_log")

    def __init__(self) -> None:
        self.generation = 1
        # key -> generation of its latest report, oldest report first.
        self._log: dict[tuple, int] = {}

    def report(self, relation: "Relation") -> None:
        """Log ``relation``'s key in the current generation (its mutators call
        this at most once per generation)."""
        relation._reported = generation = self.generation
        log = self._log
        log.pop(relation._key, None)
        log[relation._key] = generation

    def read(self) -> int:
        """Start a new generation and return it: a reader passes it to
        :meth:`since` to get what was written after this call."""
        self.generation += 1
        return self.generation

    def since(self, generation: int) -> list[tuple]:
        """The keys reported in ``generation`` or later, latest first."""
        keys = []
        for key, reported in reversed(self._log.items()):
            if reported < generation:
                break
            keys.append(key)
        return keys


#: Where relations report that belong to no system: its generation never
#: moves, so a detached relation never reports.
_DETACHED = Touched()


def row_picker(columns: Sequence[int]) -> Callable[[Sequence], Row]:
    """``values -> tuple(values[c] for c in columns)`` for a projection fixed
    before the first row is seen (join plans, the chase's head template)."""
    if len(columns) > 1:
        return itemgetter(*columns)  # C-level, but a bare value for one column
    return lambda values: tuple([values[column] for column in columns])


class Relation:
    """The extension of a relation schema: a set of rows plus optional indexes."""

    def __init__(self, schema: RelationSchema, rows: Iterable[Row] = ()):
        self.schema = schema
        # An insertion-ordered set; each row maps to the epoch it came in.
        self._rows: dict[Row, int] = {}
        #: Number of non-monotone changes (deletes and clears) so far.
        self.removals = 0
        # Moved on by every mark(), so the rows a mark has not seen are the
        # ones with a larger epoch: a suffix of the insertion order.
        self._epoch = 0
        # (row, its epoch) per delete, oldest first; entry i is removal
        # number _log_start + i.  A clear empties it.
        self._deleted: list[tuple[Row, int]] = []
        self._log_start = 0
        # position -> value -> set of rows; built lazily per position.
        self._indexes: dict[int, dict[object, set[Row]]] = {}
        # rows() as last taken; None once the relation changed.
        self._snapshot: frozenset[Row] | None = None
        # Where a change is reported, under which key, and the generation of
        # the last report; a change reports when that generation is stale.
        self._touched = _DETACHED
        self._key: tuple = ()
        self._reported = _DETACHED.generation
        self.insert_many(rows)

    # ------------------------------------------------------------------ basic

    @property
    def name(self) -> str:
        """Name of the underlying relation schema."""
        return self.schema.name

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __contains__(self, row: Row) -> bool:
        return tuple(row) in self._rows

    def rows(self) -> frozenset[Row]:
        """A snapshot of all rows (the same object until the next change)."""
        snapshot = self._snapshot
        if snapshot is None:
            snapshot = self._snapshot = frozenset(self._rows)
        return snapshot

    def attach(self, touched: Touched, key: tuple) -> None:
        """Report changes to ``touched`` under ``key`` from now on; this
        attaching counts as the first."""
        self._touched, self._key = touched, key
        touched.report(self)

    # ---------------------------------------------------------------- updates

    def insert(self, row: Row) -> bool:
        """Insert ``row``; return True if the relation changed.

        The arity is validated against the schema; set semantics means a
        duplicate insert is a no-op that returns False.
        """
        return self.insert_many((row,)) == 1

    def insert_many(self, rows: Iterable[Row]) -> int:
        """Insert every row in ``rows``; return how many were actually new."""
        validate = self.schema.validate_tuple
        return len(self.insert_built(validate(tuple(row)) for row in rows))

    def insert_built(self, rows: Iterable[Row]) -> set[Row]:
        """Insert rows built to the schema — tuples of its arity, checked
        once by the caller for the whole batch (the chase's head template) —
        and return the ones that were new.

        Each row is in, with its epoch, its index entries and the
        :class:`Touched` report, before the next is drawn, so ``rows`` may be
        a generator that reads the relation (the chase's projection check).
        """
        stored, epoch, indexes = self._rows, self._epoch, self._indexes
        new: set[Row] = set()
        for row in rows:
            if row in stored:
                continue
            stored[row] = epoch
            new.add(row)
            self._snapshot = None
            if self._reported != self._touched.generation:
                self._touched.report(self)
            for position, index in indexes.items():
                index[row[position]].add(row)
        return new

    def delete(self, row: Row) -> bool:
        """Delete ``row``; return True if it was present."""
        row = tuple(row)
        epoch = self._rows.pop(row, None)
        if epoch is None:
            return False
        self._snapshot = None
        if self._reported != self._touched.generation:
            self._touched.report(self)
        self.removals += 1
        deleted = self._deleted
        deleted.append((row, epoch))
        if len(deleted) > len(self._rows) + _LOG_SLACK:
            # Bounded by the relation: forget the older half.  A reader
            # whose mark is older than the log takes the relation whole.
            forgotten = len(deleted) // 2
            del deleted[:forgotten]
            self._log_start += forgotten
        for position, index in self._indexes.items():
            bucket = index.get(row[position])
            if bucket is not None:
                bucket.discard(row)
                if not bucket:
                    del index[row[position]]
        return True

    def clear(self) -> None:
        """Remove every row (indexes are dropped as well)."""
        self._rows.clear()
        self._indexes.clear()
        self._snapshot = None
        if self._reported != self._touched.generation:
            self._touched.report(self)
        self.removals += 1
        self._deleted = []
        self._log_start = self.removals

    # ---------------------------------------------------------------- lookups

    def scan(self) -> Iterator[Row]:
        """Iterate over all rows (alias of ``iter`` for readability in joins)."""
        return iter(self._rows)

    def newest(self, count: int) -> Iterator[Row]:
        """Iterate over the ``count`` most recently inserted rows.

        A reader that saw ``n`` rows and finds :attr:`removals` unchanged gets
        exactly the rows inserted since from ``newest(len(relation) - n)``.
        """
        return islice(reversed(self._rows), count)

    def mark(self) -> Mark:
        """What to remember now to ask :meth:`since` for the changes made later."""
        epoch = self._epoch
        self._epoch = epoch + 1
        return (self, self.removals, len(self._rows), epoch)

    def since(
        self, mark: Mark | None
    ) -> tuple[tuple[Row, ...], tuple[Row, ...]] | None:
        """``(inserted, removed)``: how the rows changed since ``mark`` was taken.

        ``inserted`` are the rows present now and absent at the mark, in
        insertion order; ``removed`` the rows present at the mark that a
        ``delete`` took.  A row deleted and put back, or inserted and
        deleted, is in neither.  ``None`` when the mark does not validate —
        no mark, taken on another ``Relation`` object, a ``clear`` since, or
        deletes older than the log reaches — and the reader has to take the
        relation whole.
        """
        if mark is None:
            return None
        relation, removals, count, epoch = mark
        rows = self._rows
        if relation is not self or removals > self.removals:
            return None
        if removals == self.removals:
            # Only grown: the rows inserted after the mark are the newest.
            grown = len(rows) - count
            if grown > 0:
                return tuple(islice(reversed(rows), grown))[::-1], ()
            return _UNMOVED if not grown else None
        start = removals - self._log_start
        if start < 0:
            return None
        # Only deletes of rows inserted by the mark's time count: an
        # incarnation inserted after it was never seen by the reader.
        old = [row for row, born in self._deleted[start:] if born <= epoch]
        grown = len(rows) - count + len(old)
        if grown < 0:
            return None
        inserted = tuple(islice(reversed(rows), grown))[::-1]
        if not old:
            return inserted, ()
        gone = set(old)
        return (
            tuple(row for row in inserted if row not in gone),
            tuple(row for row in old if row not in rows),
        )

    def lookup(self, position: int, value: object) -> Iterator[Row]:
        """Iterate over rows whose attribute at ``position`` equals ``value``.

        Builds a hash index on ``position`` the first time it is used; later
        lookups on the same position are O(matching rows).
        """
        index = self._indexes.get(position)
        if index is None:
            # Only a valid position gets an index, so only a new one is checked.
            if position < 0 or position >= self.schema.arity:
                raise SchemaError(
                    f"position {position} out of range for relation {self.name!r}"
                )
            index = defaultdict(set)
            for row in self._rows:
                index[row[position]].add(row)
            self._indexes[position] = index
        return iter(index.get(value, ()))

    def project(self, positions: Iterable[int]) -> set[Row]:
        """Return the projection of the relation onto ``positions``."""
        positions = tuple(positions)
        for position in positions:
            if position < 0 or position >= self.schema.arity:
                raise SchemaError(
                    f"position {position} out of range for relation {self.name!r}"
                )
        return {tuple(row[p] for p in positions) for row in self._rows}

    # ------------------------------------------------------------------ misc

    def copy(self) -> "Relation":
        """An independent copy sharing the (immutable) schema."""
        return Relation(self.schema, self._rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.schema == other.schema and self._rows.keys() == other._rows.keys()

    def __repr__(self) -> str:
        return f"Relation({self.name}, {len(self._rows)} rows)"
