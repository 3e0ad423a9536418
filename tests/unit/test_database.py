"""Unit tests for LocalDatabase, including the chase step (algorithm A6)."""

import pytest

from repro.database.database import LocalDatabase
from repro.database.nulls import is_null
from repro.database.parser import parse_atom, parse_query
from repro.database.query import Variable
from repro.database.schema import DatabaseSchema, RelationSchema
from repro.errors import QueryError, SchemaError


@pytest.fixture
def db():
    return LocalDatabase(
        DatabaseSchema(
            [
                RelationSchema("person", ["name", "city"]),
                RelationSchema("knows", ["a", "b"]),
            ]
        )
    )


class TestBasics:
    def test_insert_and_total_rows(self, db):
        assert db.insert("person", ("ada", "london")) is True
        assert db.insert("person", ("ada", "london")) is False
        assert db.total_rows() == 1

    def test_insert_many(self, db):
        assert db.insert_many("knows", [("a", "b"), ("b", "c")]) == 2

    def test_delete(self, db):
        db.insert("person", ("ada", "london"))
        assert db.delete("person", ("ada", "london")) is True
        assert db.delete("person", ("ada", "london")) is False

    def test_unknown_relation(self, db):
        with pytest.raises(SchemaError):
            db.insert("nope", ("x",))

    def test_add_relation(self, db):
        db.add_relation(RelationSchema("extra", ["x"]))
        assert "extra" in db
        db.insert("extra", ("1",))
        assert db.total_rows() == 1

    def test_facts_snapshot_is_immutable_copy(self, db):
        db.insert("person", ("ada", "london"))
        facts = db.facts()
        db.insert("person", ("bob", "paris"))
        assert len(facts["person"]) == 1

    def test_clear_resets_data_and_skolems(self, db):
        db.insert("person", ("ada", "london"))
        db.skolems.null_for("r", "Y", {"X": 1})
        db.clear()
        assert db.total_rows() == 0
        assert db.skolems.invented_count == 0

    def test_copy_is_deep_for_rows(self, db):
        db.insert("person", ("ada", "london"))
        clone = db.copy()
        clone.insert("person", ("bob", "paris"))
        assert db.total_rows() == 1
        assert clone.total_rows() == 2

    def test_query_helper(self, db):
        db.insert_many("knows", [("a", "b"), ("b", "c")])
        answers = db.query(parse_query("q(X) :- knows(X, Y)"))
        assert answers == {("a",), ("b",)}

    def test_equality_by_facts(self, db):
        other = LocalDatabase(
            DatabaseSchema(
                [
                    RelationSchema("person", ["name", "city"]),
                    RelationSchema("knows", ["a", "b"]),
                ]
            )
        )
        db.insert("knows", ("a", "b"))
        other.insert("knows", ("a", "b"))
        assert db == other


class TestApplyViewTuples:
    def test_plain_copy_rule(self, db):
        head = parse_atom("knows(X, Y)")
        inserted = db.apply_view_tuples(
            "r", head, (Variable("X"), Variable("Y")), {("a", "b"), ("b", "c")}
        )
        assert inserted == {("a", "b"), ("b", "c")}
        assert db.relation("knows").rows() == {("a", "b"), ("b", "c")}

    def test_duplicate_answers_do_not_reinsert(self, db):
        head = parse_atom("knows(X, Y)")
        db.apply_view_tuples("r", head, (Variable("X"), Variable("Y")), {("a", "b")})
        inserted = db.apply_view_tuples(
            "r", head, (Variable("X"), Variable("Y")), {("a", "b")}
        )
        assert inserted == set()

    def test_existential_variable_gets_labelled_null(self, db):
        head = parse_atom("person(X, C)")  # C not distinguished
        inserted = db.apply_view_tuples("r", head, (Variable("X"),), {("ada",)})
        ((name, city),) = inserted
        assert name == "ada"
        assert is_null(city)

    def test_every_answer_gets_its_own_null(self, db):
        head = parse_atom("person(X, C)")
        answers = {(f"p{index}",) for index in range(200)}
        inserted = db.apply_view_tuples("r", head, (Variable("X"),), answers)
        assert {(name,) for name, _city in inserted} == answers
        assert len({city for _name, city in inserted}) == len(answers)
        assert all(is_null(city) for _name, city in inserted)

    def test_existential_null_is_deterministic(self, db):
        head = parse_atom("person(X, C)")
        db.apply_view_tuples("r", head, (Variable("X"),), {("ada",)})
        first = next(iter(db.relation("person")))
        db.relation("person").clear()
        db.apply_view_tuples("r", head, (Variable("X"),), {("ada",)})
        second = next(iter(db.relation("person")))
        assert first == second

    def test_projection_check_skips_when_known_part_present(self, db):
        # A row with the same known (distinguished) value already exists:
        # the paper's "if piR(t) not in R" check prevents a second insertion.
        db.insert("person", ("ada", "london"))
        head = parse_atom("person(X, C)")
        inserted = db.apply_view_tuples("r", head, (Variable("X"),), {("ada",)})
        assert inserted == set()

    def test_repeated_application_reaches_fixpoint(self, db):
        head = parse_atom("person(X, C)")
        db.apply_view_tuples("r", head, (Variable("X"),), {("ada",)})
        inserted = db.apply_view_tuples("r", head, (Variable("X"),), {("ada",)})
        assert inserted == set()
        assert len(db.relation("person")) == 1

    def test_constant_in_head(self, db):
        head = parse_atom("person(X, 'rome')")
        inserted = db.apply_view_tuples("r", head, (Variable("X"),), {("ada",)})
        assert inserted == {("ada", "rome")}

    def test_unknown_head_relation(self, db):
        with pytest.raises(SchemaError):
            db.apply_view_tuples("r", parse_atom("nope(X)"), (Variable("X"),), {("a",)})

    def test_head_arity_mismatch(self, db):
        with pytest.raises(QueryError):
            db.apply_view_tuples(
                "r", parse_atom("person(X)"), (Variable("X"),), {("a",)}
            )

    def test_answer_arity_mismatch(self, db):
        with pytest.raises(QueryError):
            db.apply_view_tuples(
                "r",
                parse_atom("knows(X, Y)"),
                (Variable("X"), Variable("Y")),
                {("only-one",)},
            )
