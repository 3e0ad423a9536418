"""Golden values and work bounds for the two cold benchmark networks.

``centralized_update`` shares the join, the fragment functions and the
chase with the distributed engine, so a bug common to both would go
unnoticed by a comparison with it (the chase of ``tests/fixpoint_oracle.py``
shares none, but runs on small drawn networks only).  The values below
were recorded from the commit *before* the evaluator was replaced by compiled
plans and fragments became maintained (``df58d8b``), with
``benchmarks/perf``'s ``cold_tree`` / ``cold_clique`` specs: a digest of the
sorted ground fix-point and the run's exact message, row and modelled byte
counts.  None of them may move.
"""

import gc
import hashlib
import json

import pytest

import repro.core.update as update_module
import repro.database.database as database_module
import repro.database.evaluate as evaluate_module
import repro.network.message as message_module
from repro.api.session import Session
from repro.api.spec import ScenarioSpec
from repro.core.fixpoint import ground_part
from repro.core.state import PathFlags, RuleFlags
from repro.database.database import LocalDatabase
from repro.workloads.topologies import clique_topology, tree_topology

TOPOLOGIES = {
    "cold_tree": lambda: tree_topology(5, 2),
    "cold_clique": lambda: clique_topology(7),
}

#: (workload, seed) -> (ground digest, messages, rows shipped, modelled bytes).
GOLDEN = {
    ("cold_tree", 0): (
        "bf162b37fad7c43cf39827b2c154b2f249e60221b585106e2aafeca6eb80d415",
        1380,
        58560,
        4348876,
    ),
    ("cold_tree", 1): (
        "179698959e2ee3cb916afa48b8c4d083bedf33c412c4c11c62074ae15202a0a0",
        1380,
        58560,
        4359739,
    ),
    ("cold_clique", 0): (
        "420732ba9d832a3f2aaa7d63ace3e02aa0b455fb3e59b4454c39b29176cc276d",
        858,
        32760,
        2383300,
    ),
    ("cold_clique", 1): (
        "51918f7daa71d71cfe89adef0e42d7c5e2d3a0704fa874a876074449bf396347",
        858,
        32760,
        2376905,
    ),
}


def spec_of(workload, seed):
    return ScenarioSpec.from_topology(
        TOPOLOGIES[workload](), records_per_node=10, seed=seed
    )


def ground_digest(databases):
    canonical = sorted(
        (node, name, sorted(map(repr, rows)))
        for node, relations in ground_part(dict(databases)).items()
        for name, rows in relations.items()
    )
    return hashlib.sha256(json.dumps(canonical).encode()).hexdigest()


@pytest.mark.parametrize(("workload", "seed"), sorted(GOLDEN))
def test_cold_update_matches_the_recorded_run(workload, seed):
    with Session.from_spec(spec_of(workload, seed)) as session:
        result = session.run("update")
    stats = result.stats
    assert (
        ground_digest(result.databases),
        stats.total_messages,
        stats.total_tuples_transferred,
        stats.messages.total_bytes,
    ) == GOLDEN[workload, seed]


def test_each_fragment_is_evaluated_in_full_exactly_once(monkeypatch):
    """The machine-independent work bound of the cold path.

    One cold update evaluates each distinct (source, body) fragment in full
    once — outgoing rules with equal bodies at a source share one maintained
    fragment, and everything after that is maintenance.  That is 62 full
    evaluations on the tree and 7 on the clique (122 and 78 while each rule
    kept its own), and 412 and 78 delta evaluations (698 and 840).  The
    tree's evaluator hands out at most 2 580 bindings (84 750 before the
    evaluator became compiled and fragments maintained).  A push maintains
    each body once, however many owner entries read it: 926 fragment
    lookups on the tree and 241 on the clique (1 242 and 1 074 with one
    lookup per entry).
    """
    full = []
    deltas = [0]
    bindings = [0]
    maintained = [0]
    pure_fragment_for = update_module.fragment_for
    pure_fragment_delta_for = update_module.fragment_delta_for
    pure_maintain_fragment = update_module.maintain_fragment

    def counting_fragment_for(database, rule, node_id):
        full.append((node_id, rule.body_query_for(node_id)))
        return pure_fragment_for(database, rule, node_id)

    def counting_fragment_delta_for(*args):
        deltas[0] += 1
        return pure_fragment_delta_for(*args)

    def counted(evaluate):
        def counting(*args):
            for solution in evaluate(*args):
                bindings[0] += 1
                yield solution

        return counting

    def counting_maintain_fragment(*args):
        maintained[0] += 1
        return pure_maintain_fragment(*args)

    monkeypatch.setattr(update_module, "fragment_for", counting_fragment_for)
    monkeypatch.setattr(
        update_module, "fragment_delta_for", counting_fragment_delta_for
    )
    monkeypatch.setattr(
        update_module, "maintain_fragment", counting_maintain_fragment
    )
    for name in ("evaluate_body", "evaluate_body_delta"):
        monkeypatch.setattr(update_module, name, counted(getattr(update_module, name)))

    for workload, rule_pairs, body_pairs, delta_bound, bindings_bound, lookups in (
        ("cold_tree", 122, 62, 412, 2_580, 926),
        ("cold_clique", 78, 7, 78, 490, 241),
    ):
        full.clear()
        deltas[0] = bindings[0] = maintained[0] = 0
        spec = spec_of(workload, 0)
        with Session.from_spec(spec) as session:
            session.run("update")
        pairs = [
            (source, rule.body_query_for(source))
            for rule in spec.rules
            for source in rule.sources
        ]
        assert len(pairs) == rule_pairs
        assert len(full) == len(set(full)) == len(set(pairs)) == body_pairs
        assert set(full) == set(pairs)
        assert 0 < deltas[0] <= delta_bound
        assert 0 < bindings[0] <= bindings_bound
        assert maintained[0] == lookups


@pytest.mark.parametrize(
    ("workload", "rows_inserted", "offered_bound", "sized_bound"),
    [("cold_tree", 4_740, 4_740, 2_580), ("cold_clique", 780, 5_460, 490)],
)
def test_only_new_rows_are_chased_and_sized(
    monkeypatch, workload, rows_inserted, offered_bound, sized_bound
):
    """The receiver's and the byte model's work bound, machine-independent.

    A head node joins and chases only the rows an answer adds, and a
    maintained fragment's modelled size grows by the rows it gains: on the
    acyclic tree the chase is offered exactly the 4 740 rows it inserts
    (37 370 before the receiver became semi-naive); on the clique several
    rules derive the same head row, so more is offered than inserted, but no
    more than 5 460 (21 840 before).  The size model walks each row of each
    distinct maintained fragment once: 2 580 on the tree and 490 on the
    clique (4 740 and 5 460 while every rule kept its own fragment, all
    58 560 and 32 760 shipped rows before that).
    """
    offered, inserted, sized = [0], [0], [0]
    chase = LocalDatabase.apply_view_tuples
    pure_rows_size = message_module.rows_size

    def counting_chase(database, rule_id, head, distinguished, answers):
        new = chase(database, rule_id, head, distinguished, answers)
        offered[0] += len(answers)
        inserted[0] += len(new)
        return new

    def counting_rows_size(rows):
        if isinstance(rows, frozenset):  # a fragment, not a path or a row
            sized[0] += len(rows)
        return pure_rows_size(rows)

    monkeypatch.setattr(LocalDatabase, "apply_view_tuples", counting_chase)
    for module in (message_module, update_module):
        monkeypatch.setattr(module, "rows_size", counting_rows_size)

    with Session.from_spec(spec_of(workload, 0)) as session:
        stats = session.run("update").stats
    assert stats.total_tuples_transferred == GOLDEN[workload, 0][2]
    assert rows_inserted == inserted[0] <= offered[0] <= offered_bound
    assert 0 < sized[0] <= sized_bound


def test_flags_are_made_only_for_the_entries_kept(monkeypatch):
    """The protocol's per-answer allocations, machine-independent.

    One cold update makes exactly one ``RuleFlags`` per rule entry and one
    ``PathFlags`` per update path that the peers keep: 122 and 61 on the
    tree, 78 and 49 on the clique.  While every answer and round built one
    for ``setdefault`` to throw away, it made 2 554 and 896 on the tree and
    3 894 and 702 on the clique.
    """
    made = dict.fromkeys((RuleFlags, PathFlags), 0)
    for cls in made:
        init = cls.__init__

        def counting_init(self, *args, _cls=cls, _init=init, **kwargs):
            made[_cls] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)

    for workload, kept in (("cold_tree", (122, 61)), ("cold_clique", (78, 49))):
        made.update(dict.fromkeys(made, 0))
        with Session.from_spec(spec_of(workload, 0)) as session:
            session.run("update")
            states = [node.state for node in session.system.nodes.values()]
        assert (
            sum(len(state.rule_flags) for state in states),
            sum(len(state.update_paths) for state in states),
        ) == kept
        assert (made[RuleFlags], made[PathFlags]) == kept


def test_each_shape_is_compiled_once(monkeypatch):
    """What one cold update compiles, machine-independent.

    Everything compiled from a rule belongs to its shape: one evaluation plan
    per distinct body query (their step lists and join orders are chosen once
    per order and size ranking), one set of hash-join plans per join shape
    and one A6 head template per (head, distinguished) shape.  While each
    rule compiled its own, a cold update compiled 62 plans, 122 step lists,
    182 join plans, 122 head templates and 474 join orders on the tree, and
    7 / 20 / 156 / 78 / 85 on the clique.
    """
    plans, joins, heads = [], [], []

    def recording(cls, seen):
        init = cls.__init__

        def recording_init(self, *args):
            seen.append(self)
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", recording_init)

    recording(evaluate_module._Plan, plans)
    recording(update_module._JoinShape, joins)
    recording(database_module._HeadTemplate, heads)

    def compiled(workload):
        """What one cold update of ``workload`` compiles, and how many
        distinct bodies and head shapes its rules have."""
        gc.collect()  # nothing left over from earlier runs may hold a shape
        plans.clear(), joins.clear(), heads.clear()
        spec = spec_of(workload, 0)
        with Session.from_spec(spec) as session:
            session.run("update")
        rules = spec.rules
        return (
            len(rules),
            len({rule.body_query_for(s) for rule in rules for s in rule.sources}),
            len({(rule.head, rule.distinguished_variables) for rule in rules}),
            len(plans),
            sum(len(plan.steps) for plan in plans),
            sum(len(plan.orders) for plan in plans),
            sum(len(shape.plans) for shape in joins),
            len(heads),
        )

    for workload, step_lists, join_plans, orders in (
        ("cold_tree", 9, 11, 9),
        ("cold_clique", 9, 15, 9),
    ):
        rules, bodies, head_shapes, *counts = compiled(workload)
        assert rules > bodies == counts[0] == 3
        assert 0 < counts[1] <= step_lists
        assert 0 < counts[2] <= orders
        assert 0 < counts[3] <= join_plans
        assert head_shapes == counts[4] == 6
