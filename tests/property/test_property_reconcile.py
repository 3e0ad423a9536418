"""Property-based tests: the reconciliation algebra is order-insensitive.

Post-partition reconciliation (:mod:`repro.faults.reconcile`) replays merged
change logs into every diverged side and relies on three algebraic facts to
be correct regardless of which side's log arrives first, how many sides
there are, or whether a log is replayed twice:

* :meth:`ChangeSet.union` is idempotent, commutative and associative (so
  merging is insensitive to log ordering and duplication);
* :func:`apply_changeset` is idempotent (replaying a merged log into a side
  that already absorbed it inserts nothing new);
* :func:`changes_since` of a snapshot against itself is empty (reconciling
  identical databases is a no-op).

These are generated-input counterparts to the single-scenario assertions in
``tests/chaos/``.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.coordination.changeset import ChangeSet
from repro.core.system import P2PSystem
from repro.database.schema import DatabaseSchema, RelationSchema
from repro.faults import (
    apply_changeset,
    changes_since,
    merge_changesets,
    reconcile,
)

NODE_NAMES = ["p0", "p1", "p2"]

values = st.integers(min_value=0, max_value=4)
rows = st.sets(st.tuples(values, values), max_size=6)
node_rows = st.fixed_dictionaries({name: rows for name in NODE_NAMES})


def make_changeset(data):
    """A ChangeSet over the shared single-relation schema (canonical order)."""
    return ChangeSet(
        inserts={
            name: {"item": tuple(sorted(per_node, key=repr))}
            for name, per_node in sorted(data.items())
            if per_node
        }
    )


def build_system(data):
    """A rule-free system holding ``data`` in each node's ``item`` relation."""
    schemas = {
        name: DatabaseSchema([RelationSchema("item", ["x", "y"])])
        for name in NODE_NAMES
    }
    initial = {name: {"item": sorted(per_node)} for name, per_node in data.items()}
    return P2PSystem.build(schemas, [], initial)


class TestUnionAlgebra:
    @given(data=node_rows)
    @settings(max_examples=30, deadline=None)
    def test_union_is_idempotent(self, data):
        log = make_changeset(data)
        assert log.union(log) == log

    @given(a=node_rows, b=node_rows)
    @settings(max_examples=30, deadline=None)
    def test_union_is_commutative(self, a, b):
        left, right = make_changeset(a), make_changeset(b)
        assert left.union(right) == right.union(left)

    @given(a=node_rows, b=node_rows, c=node_rows)
    @settings(max_examples=20, deadline=None)
    def test_merge_is_insensitive_to_log_order(self, a, b, c):
        logs = [make_changeset(d) for d in (a, b, c)]
        reference = merge_changesets(*logs)
        for permutation in itertools.permutations(logs):
            assert merge_changesets(*permutation) == reference

    @given(a=node_rows, b=node_rows)
    @settings(max_examples=20, deadline=None)
    def test_duplicated_logs_merge_to_the_same_set(self, a, b):
        left, right = make_changeset(a), make_changeset(b)
        assert merge_changesets(left, right, left, right) == left.union(right)

    @given(data=node_rows)
    @settings(max_examples=20, deadline=None)
    def test_union_with_empty_canonicalises_only(self, data):
        log = make_changeset(data)
        merged = log.union(ChangeSet())
        assert merged == log
        assert merged.inserted_rows == log.inserted_rows


class TestChangesSince:
    @given(data=node_rows)
    @settings(max_examples=30, deadline=None)
    def test_snapshot_against_itself_is_empty(self, data):
        snapshot = build_system(data).databases()
        changes = changes_since(snapshot, snapshot)
        assert changes.empty
        assert not changes.removals

    @given(base=node_rows, extra=node_rows)
    @settings(max_examples=30, deadline=None)
    def test_log_replays_the_baseline_to_the_current_state(self, base, extra):
        grown = {name: base[name] | extra[name] for name in NODE_NAMES}
        baseline = build_system(base).databases()
        current = build_system(grown).databases()
        changes = changes_since(baseline, current)
        assert not changes.removals
        # Replaying the log into a fresh copy of the baseline reconstructs
        # the current state exactly.
        system = build_system(base)
        apply_changeset(system, changes)
        assert system.databases() == current

    @given(base=node_rows, extra=node_rows)
    @settings(max_examples=30, deadline=None)
    def test_apply_is_idempotent(self, base, extra):
        grown = {name: base[name] | extra[name] for name in NODE_NAMES}
        baseline = build_system(base).databases()
        changes = changes_since(baseline, build_system(grown).databases())
        system = build_system(base)
        first = apply_changeset(system, changes)
        after_first = system.databases()
        assert first == sum(
            len(extra[name] - base[name]) for name in NODE_NAMES
        )
        assert apply_changeset(system, changes) == 0
        assert system.databases() == after_first


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
