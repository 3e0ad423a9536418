"""Unit tests for the set-semantics relation store."""

import pytest

from repro.database.relation import Relation, Touched
from repro.database.schema import RelationSchema
from repro.errors import SchemaError


@pytest.fixture
def pair_relation():
    return Relation(RelationSchema("edge", ["src", "dst"]))


class TestInsertDelete:
    def test_insert_returns_true_for_new_row(self, pair_relation):
        assert pair_relation.insert(("a", "b")) is True
        assert len(pair_relation) == 1

    def test_insert_duplicate_is_noop(self, pair_relation):
        pair_relation.insert(("a", "b"))
        assert pair_relation.insert(("a", "b")) is False
        assert len(pair_relation) == 1

    def test_insert_validates_arity(self, pair_relation):
        with pytest.raises(SchemaError):
            pair_relation.insert(("only-one",))

    def test_insert_many_counts_new_rows(self, pair_relation):
        new = pair_relation.insert_many([("a", "b"), ("a", "b"), ("c", "d")])
        assert new == 2

    def test_delete_existing(self, pair_relation):
        pair_relation.insert(("a", "b"))
        assert pair_relation.delete(("a", "b")) is True
        assert len(pair_relation) == 0

    def test_delete_missing(self, pair_relation):
        assert pair_relation.delete(("x", "y")) is False

    def test_clear(self, pair_relation):
        pair_relation.insert_many([("a", "b"), ("c", "d")])
        pair_relation.clear()
        assert len(pair_relation) == 0

    def test_contains_and_iteration(self, pair_relation):
        pair_relation.insert(("a", "b"))
        assert ("a", "b") in pair_relation
        assert set(pair_relation) == {("a", "b")}


class TestLookupAndProjection:
    def test_lookup_uses_position(self, pair_relation):
        pair_relation.insert_many([("a", "b"), ("a", "c"), ("d", "e")])
        assert set(pair_relation.lookup(0, "a")) == {("a", "b"), ("a", "c")}

    def test_lookup_no_match(self, pair_relation):
        pair_relation.insert(("a", "b"))
        assert list(pair_relation.lookup(1, "zzz")) == []

    def test_lookup_invalid_position(self, pair_relation):
        with pytest.raises(SchemaError):
            list(pair_relation.lookup(5, "a"))

    def test_lookup_index_stays_consistent_after_insert(self, pair_relation):
        pair_relation.insert(("a", "b"))
        list(pair_relation.lookup(0, "a"))  # builds the index
        pair_relation.insert(("a", "z"))
        assert set(pair_relation.lookup(0, "a")) == {("a", "b"), ("a", "z")}

    def test_lookup_index_stays_consistent_after_delete(self, pair_relation):
        pair_relation.insert_many([("a", "b"), ("a", "c")])
        list(pair_relation.lookup(0, "a"))
        pair_relation.delete(("a", "b"))
        assert set(pair_relation.lookup(0, "a")) == {("a", "c")}

    def test_project(self, pair_relation):
        pair_relation.insert_many([("a", "b"), ("c", "b")])
        assert pair_relation.project([1]) == {("b",)}

    def test_project_invalid_position(self, pair_relation):
        with pytest.raises(SchemaError):
            pair_relation.project([9])


class TestCopyAndEquality:
    def test_copy_is_independent(self, pair_relation):
        pair_relation.insert(("a", "b"))
        clone = pair_relation.copy()
        clone.insert(("c", "d"))
        assert len(pair_relation) == 1
        assert len(clone) == 2

    def test_equality_by_schema_and_rows(self):
        schema = RelationSchema("edge", ["src", "dst"])
        first = Relation(schema, [("a", "b")])
        second = Relation(schema, [("a", "b")])
        assert first == second

    def test_inequality_for_different_rows(self):
        schema = RelationSchema("edge", ["src", "dst"])
        assert Relation(schema, [("a", "b")]) != Relation(schema, [("a", "c")])

    def test_rows_snapshot_is_frozen(self, pair_relation):
        pair_relation.insert(("a", "b"))
        snapshot = pair_relation.rows()
        pair_relation.insert(("c", "d"))
        assert snapshot == frozenset({("a", "b")})

    def test_rows_snapshot_is_shared_until_the_next_change(self, pair_relation):
        pair_relation.insert(("a", "b"))
        snapshot = pair_relation.rows()
        assert pair_relation.rows() is snapshot
        pair_relation.insert(("a", "b"))  # a duplicate changes nothing
        assert pair_relation.rows() is snapshot
        for change in (
            lambda: pair_relation.insert(("c", "d")),
            lambda: pair_relation.delete(("c", "d")),
            pair_relation.clear,
        ):
            before = pair_relation.rows()
            change()
            assert pair_relation.rows() is not before
            assert pair_relation.rows() == frozenset(pair_relation)


class TestMarkAndSince:
    """``since(mark)``: the rows added, in order, and the rows a delete took —
    or None, take it whole."""

    def test_rows_added_since_the_mark_come_in_insertion_order(self, pair_relation):
        pair_relation.insert(("a", "b"))
        mark = pair_relation.mark()
        assert pair_relation.since(mark) == ((), ())
        added = [(str(i), "x") for i in (7, 3, 9, 1, 5)]
        pair_relation.insert_many(added)
        assert pair_relation.since(mark) == (tuple(added), ())
        assert pair_relation.since(pair_relation.mark()) == ((), ())

    def test_no_mark_does_not_validate(self, pair_relation):
        assert pair_relation.since(None) is None

    def test_a_delete_names_exactly_the_rows_it_took(self, pair_relation):
        pair_relation.insert_many([("a", "b"), ("c", "d"), ("e", "f")])
        mark = pair_relation.mark()
        pair_relation.delete(("c", "d"))
        pair_relation.insert(("g", "h"))
        pair_relation.delete(("a", "b"))
        assert pair_relation.since(mark) == ((("g", "h"),), (("c", "d"), ("a", "b")))

    def test_a_row_deleted_and_put_back_nets_to_nothing(self, pair_relation):
        pair_relation.insert_many([("a", "b"), ("c", "d")])
        mark = pair_relation.mark()
        pair_relation.delete(("a", "b"))
        pair_relation.insert(("a", "b"))  # same rows, same count
        assert pair_relation.since(mark) == ((), ())
        pair_relation.insert(("e", "f"))
        assert pair_relation.since(mark) == ((("e", "f"),), ())

    def test_a_row_inserted_and_deleted_nets_to_nothing(self, pair_relation):
        pair_relation.insert(("a", "b"))
        mark = pair_relation.mark()
        pair_relation.insert(("c", "d"))
        pair_relation.insert(("e", "f"))
        pair_relation.delete(("c", "d"))
        assert pair_relation.since(mark) == ((("e", "f"),), ())
        pair_relation.delete(("e", "f"))
        assert pair_relation.since(mark) == ((), ())

    def test_a_row_put_back_and_deleted_again_is_removed(self, pair_relation):
        pair_relation.insert_many([("a", "b"), ("c", "d")])
        mark = pair_relation.mark()
        pair_relation.delete(("a", "b"))
        pair_relation.insert(("a", "b"))
        pair_relation.delete(("a", "b"))
        assert pair_relation.since(mark) == ((), (("a", "b"),))

    def test_each_mark_reads_its_own_window(self, pair_relation):
        pair_relation.insert_many([("a", "b"), ("c", "d")])
        early = pair_relation.mark()
        pair_relation.delete(("a", "b"))
        pair_relation.insert(("e", "f"))
        late = pair_relation.mark()
        pair_relation.insert(("a", "b"))
        pair_relation.delete(("e", "f"))
        assert pair_relation.since(early) == ((), ())
        assert pair_relation.since(late) == ((("a", "b"),), (("e", "f"),))

    def test_a_clear_fails_the_mark(self, pair_relation):
        pair_relation.insert_many([("a", "b"), ("c", "d")])
        mark = pair_relation.mark()
        pair_relation.clear()
        pair_relation.insert(("a", "b"))
        assert pair_relation.since(mark) is None
        assert pair_relation.since(pair_relation.mark()) == ((), ())

    def test_the_delete_log_is_bounded_by_the_relation(self, pair_relation):
        rows = [(str(i), "x") for i in range(100)]
        pair_relation.insert_many(rows)
        first = pair_relation.mark()
        for row in rows[:50]:
            mark = pair_relation.mark()
            pair_relation.delete(row)
            assert pair_relation.since(mark) == ((), (row,))
        assert pair_relation.since(first) == ((), tuple(rows[:50]))
        for row in rows[50:]:
            pair_relation.delete(row)
        # A hundred deletes from a hundred rows: the log outgrew the relation
        # and forgot its older part, so a mark older than what it still
        # holds no longer validates.
        assert len(pair_relation._deleted) < 50
        assert pair_relation.since(first) is None

    def test_a_missed_delete_does_not_move_removals(self, pair_relation):
        pair_relation.insert(("a", "b"))
        mark = pair_relation.mark()
        pair_relation.delete(("x", "y"))
        assert pair_relation.since(mark) == ((), ())

    def test_a_mark_of_another_relation_object_does_not_validate(self, pair_relation):
        pair_relation.insert(("a", "b"))
        assert pair_relation.copy().since(pair_relation.mark()) is None

    def test_a_mark_ahead_of_the_relation_does_not_validate(self, pair_relation):
        pair_relation.insert(("a", "b"))
        relation, removals, count, epoch = pair_relation.mark()
        assert pair_relation.since((relation, removals, count + 1, epoch)) is None
        assert pair_relation.since((relation, removals + 1, count, epoch)) is None


class TestTouched:
    """A relation reports its first change after each read, wherever it is."""

    def test_a_relation_reports_once_per_generation(self, pair_relation):
        touched = Touched()
        pair_relation.attach(touched, ("n", "edge"))
        since = touched.read()
        assert touched.since(since) == []
        pair_relation.insert(("a", "b"))
        pair_relation.insert(("c", "d"))
        pair_relation.delete(("a", "b"))
        assert touched.since(since) == [("n", "edge")]
        later = touched.read()
        assert touched.since(later) == []
        pair_relation.clear()
        assert touched.since(later) == [("n", "edge")]
        # An earlier reader still sees it: one entry per relation.
        assert touched.since(since) == [("n", "edge")]

    def test_a_no_op_write_reports_nothing(self, pair_relation):
        touched = Touched()
        pair_relation.insert(("a", "b"))
        pair_relation.attach(touched, ("n", "edge"))
        since = touched.read()
        pair_relation.insert(("a", "b"))
        pair_relation.delete(("x", "y"))
        assert touched.since(since) == []

    def test_since_lists_the_latest_report_first(self):
        touched = Touched()
        first, second = (Relation(RelationSchema(name, ["x"])) for name in "pq")
        first.attach(touched, ("n", "p"))
        second.attach(touched, ("n", "q"))
        since = touched.read()
        second.insert(("1",))
        first.insert(("1",))
        assert touched.since(since) == [("n", "p"), ("n", "q")]

    def test_a_detached_relation_reports_nowhere(self, pair_relation):
        touched = Touched()
        since = touched.read()
        pair_relation.insert(("a", "b"))
        assert touched.since(since) == []
