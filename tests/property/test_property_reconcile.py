"""Property-based tests: the change algebra reconciliation is built on.

Post-partition reconciliation (:mod:`repro.faults.reconcile`) applies merged
change logs to every diverged side and relies on algebraic facts of
:class:`~repro.coordination.changeset.Change` to be correct regardless of
which side's log arrives first, how many sides there are, or whether a log
is applied twice:

* :meth:`Change.union` is idempotent, commutative and associative — on
  removed rows and rule ids as on inserted rows — so merging is insensitive
  to log ordering and duplication;
* :meth:`Change.between` a snapshot and itself is empty, and applied to the
  baseline it reconstructs the current state, removals included;
* :meth:`Change.apply` is idempotent, and a change its check rejects leaves
  the system's structural digest untouched;
* the served document form round-trips: ``from_json(to_json(c)) == c``.

These are generated-input counterparts to the single-scenario assertions in
``tests/chaos/`` and ``tests/unit/test_changeset.py``.
"""

import functools
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ScenarioSpec, Session
from repro.coordination.changeset import Change
from repro.coordination.rule import rule_from_text
from repro.database.schema import DatabaseSchema, RelationSchema
from repro.errors import ChangeError
from repro.faults import reconcile
from sync_oracle import snapshot_of

NODE_NAMES = ["p0", "p1", "p2"]
RULES = [
    rule_from_text("c01", "p0: item(X, Y) -> p1: item(X, Y)"),
    rule_from_text("c12", "p1: item(X, Y) -> p2: item(Y, X)"),
    rule_from_text("c20", "p2: item(X, Y), X != Y -> p0: item(X, Y)"),
]

values = st.integers(min_value=0, max_value=4)
rows = st.sets(st.tuples(values, values), max_size=6)
node_rows = st.fixed_dictionaries({name: rows for name in NODE_NAMES})
rule_picks = st.lists(st.sampled_from(RULES), max_size=3, unique=True)
rule_ids = st.lists(st.sampled_from([rule.rule_id for rule in RULES]), max_size=3)


def by_node(data):
    """``{node: {"item": rows}}`` in canonical order, empty nodes dropped."""
    return {
        name: {"item": tuple(sorted(per_node, key=repr))}
        for name, per_node in sorted(data.items())
        if per_node
    }


def make_change(inserted, removed=None, add_rules=(), remove_rules=()):
    """A canonical Change over the shared single-relation schema."""
    return Change(
        inserts=by_node(inserted),
        removes=by_node(removed or {}),
        add_rules=tuple(sorted(add_rules, key=lambda rule: rule.text)),
        remove_rules=tuple(sorted(set(remove_rules))),
    )


changes = st.builds(make_change, node_rows, node_rows, rule_picks, rule_ids)


def merge(*logs):
    return functools.reduce(Change.union, logs, Change())


def build_system(data):
    """A rule-free system holding ``data`` in each node's ``item`` relation."""
    schemas = {
        name: DatabaseSchema([RelationSchema("item", ["x", "y"])])
        for name in NODE_NAMES
    }
    initial = {name: {"item": sorted(per_node)} for name, per_node in data.items()}
    return ScenarioSpec.of(schemas, [], initial).build_system()


class TestUnionAlgebra:
    @given(log=changes)
    @settings(max_examples=30, deadline=None)
    def test_union_is_idempotent(self, log):
        assert log.union(log) == log

    @given(left=changes, right=changes)
    @settings(max_examples=30, deadline=None)
    def test_union_is_commutative(self, left, right):
        assert left.union(right) == right.union(left)

    @given(a=changes, b=changes, c=changes)
    @settings(max_examples=20, deadline=None)
    def test_merge_is_insensitive_to_log_order(self, a, b, c):
        logs = [a, b, c]
        reference = merge(*logs)
        for permutation in itertools.permutations(logs):
            assert merge(*permutation) == reference

    @given(left=changes, right=changes)
    @settings(max_examples=20, deadline=None)
    def test_duplicated_logs_merge_to_the_same_set(self, left, right):
        assert merge(left, right, left, right) == left.union(right)

    @given(log=changes)
    @settings(max_examples=20, deadline=None)
    def test_union_with_empty_canonicalises_only(self, log):
        merged = log.union(Change())
        assert merged == log
        assert merged.inserted_rows == log.inserted_rows


class TestBetween:
    @given(data=node_rows)
    @settings(max_examples=30, deadline=None)
    def test_snapshot_against_itself_is_empty(self, data):
        snapshot = build_system(data).databases()
        assert Change.between(snapshot, snapshot).empty

    @given(base=node_rows, current=node_rows)
    @settings(max_examples=30, deadline=None)
    def test_applied_to_the_baseline_it_yields_the_current_state(self, base, current):
        # Removals included: rows only the baseline holds are removed.
        change = Change.between(
            build_system(base).databases(), build_system(current).databases()
        )
        system = build_system(base)
        change.apply(system)
        assert system.databases() == build_system(current).databases()

    @given(base=node_rows, extra=node_rows)
    @settings(max_examples=30, deadline=None)
    def test_apply_is_idempotent(self, base, extra):
        grown = {name: base[name] | extra[name] for name in NODE_NAMES}
        change = Change.between(
            build_system(base).databases(), build_system(grown).databases()
        )
        system = build_system(base)
        first = change.apply(system)
        after_first = system.databases()
        assert first == sum(len(extra[name] - base[name]) for name in NODE_NAMES)
        assert change.apply(system) == 0
        assert system.databases() == after_first


class TestDocumentAndCheck:
    @given(change=changes)
    @settings(max_examples=40, deadline=None)
    def test_the_document_round_trips(self, change):
        assert Change.from_json(json.loads(json.dumps(change.to_json()))) == change

    @given(
        data=node_rows,
        change=changes,
        flaw=st.sampled_from(
            [
                Change(remove_rules=("no-such-rule",)),
                Change(inserts={"p0": {"item": ((1, 2, 3),)}}),
                Change(removes={"ghost": {"item": ((1, 2),)}}),
                Change(inserts={"p1": {"nope": ((1, 2),)}}),
            ]
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_a_rejected_change_leaves_the_digest_unchanged(self, data, change, flaw):
        system = ScenarioSpec.of(
            {name: [RelationSchema("item", ["x", "y"])] for name in NODE_NAMES},
            RULES[:2],
            {name: {"item": sorted(per_node)} for name, per_node in data.items()},
        ).build_system()
        before = snapshot_of(system)
        bad = change.union(flaw)
        with pytest.raises(ChangeError):
            bad.check(system)
        with pytest.raises(ChangeError):
            bad.apply(system)
        assert snapshot_of(system) == before


class _SystemSession:
    """The slice of the Session surface :func:`reconcile` touches."""

    def __init__(self, system):
        self.system = system

    def update(self):
        Session(self.system).run("update")


class TestReconcile:
    @given(data=node_rows)
    @settings(max_examples=20, deadline=None)
    def test_identical_sides_reconcile_to_a_no_op(self, data):
        sides = [_SystemSession(build_system(data)) for _ in range(2)]
        baseline = sides[0].system.databases()
        merged = reconcile(sides, baseline, run=False)
        assert merged.empty
        for side in sides:
            assert side.system.databases() == baseline

    @given(base=node_rows, left=node_rows, right=node_rows)
    @settings(max_examples=20, deadline=None)
    def test_diverged_sides_meet_at_the_union(self, base, left, right):
        sides = [
            _SystemSession(
                build_system({n: base[n] | d[n] for n in NODE_NAMES})
            )
            for d in (left, right)
        ]
        baseline = build_system(base).databases()
        reconcile(sides, baseline, run=False)
        union = build_system(
            {n: base[n] | left[n] | right[n] for n in NODE_NAMES}
        ).databases()
        assert sides[0].system.databases() == union
        assert sides[1].system.databases() == union
