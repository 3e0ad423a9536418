"""The warm pools' former sync, kept as a test oracle.

Until the coordinator↔worker boundary moved to cursors, the pool held a
frozenset copy of every relation its workers had and found what to re-ship
by set difference against the live system.  That is O(world) per run, which
is why production no longer does it — and exactly what makes it a good
oracle: it shares no code with the marks it checks
(:class:`repro.sharding.pool.WorldMirror`, :meth:`Change.read`).

``snapshot_of`` takes the copy, ``set_difference_delta`` diffs against it,
and ``assert_ships_what_the_oracle_ships`` states how the two may differ: a
relation that was cleared or swapped since the copy was taken is rewritten
whole by the marks, even where the set difference comes out smaller (the rows
were put back, or had never been shipped).  Rows a ``delete`` took ship as
exactly the rows the set difference finds gone.
"""

from repro.coordination.changeset import Change, rules_fingerprint


def snapshot_of(system):
    """The ``(rules, facts)`` copy a freshly synced pool used to hold."""
    return rules_fingerprint(system.registry), {
        node_id: dict(node.database.facts()) for node_id, node in system.nodes.items()
    }


def set_difference_delta(system, known_rules, known_facts) -> Change:
    """Diff the live coordinator against a copy of what the workers hold."""
    current_rules = rules_fingerprint(system.registry)
    remove_rules = tuple(
        rule_id
        for rule_id, text in known_rules.items()
        if current_rules.get(rule_id) != text
    )
    add_rules = tuple(
        rule
        for rule in system.registry
        if known_rules.get(rule.rule_id) != current_rules[rule.rule_id]
    )

    inserts = {}
    removes = {}
    replaces = {}
    relations = {}
    for node_id, node in system.nodes.items():
        mirrored = known_facts.get(node_id, {})
        for relation_name, rows in node.database.facts().items():
            old = mirrored.get(relation_name)
            if old is not None:
                if rows - old:
                    inserts.setdefault(node_id, {})[relation_name] = tuple(rows - old)
                if old - rows:
                    removes.setdefault(node_id, {})[relation_name] = tuple(old - rows)
                continue
            # The relation is new to the workers: ship it whole with its
            # schema, so it can be created.
            replaces.setdefault(node_id, {})[relation_name] = tuple(rows)
            schema = node.database.relation(relation_name).schema
            relations[node_id] = (*relations.get(node_id, ()), schema)
    return Change(
        inserts=inserts,
        removes=removes,
        replaces=replaces,
        relations=relations,
        add_rules=add_rules,
        remove_rules=remove_rules,
    )


def _flat(delta: Change) -> dict:
    """``(node, relation) -> {"insert" | "remove" | "replace": row set}``."""
    flat = {}
    for kind, by_node in (
        ("insert", delta.inserts),
        ("remove", delta.removes),
        ("replace", delta.replaces),
    ):
        for node_id, relations in by_node.items():
            for name, rows in relations.items():
                assert len(set(rows)) == len(rows)
                flat.setdefault((node_id, name), {})[kind] = frozenset(rows)
    return flat


def assert_ships_what_the_oracle_ships(
    system, shipped, oracle, known_facts, rewritten=()
) -> None:
    """``shipped`` (from the marks) against ``oracle`` (the set difference).

    ``rewritten`` names the ``(node, relation)`` pairs cleared or swapped
    since the last sync; those must go out as a whole-relation replace,
    every other relation exactly as the oracle ships it — inserted rows as
    ``inserts``, the rows a delete took as ``removes``.  Schemas travel for
    exactly the relations new to the workers.  Whatever it ships, the change
    must rebuild the coordinator's facts from ``known_facts``, the copy of
    what the workers held.
    """
    assert shipped.add_rules == oracle.add_rules
    assert shipped.remove_rules == oracle.remove_rules
    assert {node: set(schemas) for node, schemas in shipped.relations.items()} == {
        node: set(schemas) for node, schemas in oracle.relations.items()
    }
    got, expected = _flat(shipped), _flat(oracle)
    for key in rewritten:
        node_id, name = key
        rows = system.node(node_id).database.relation(name).rows()
        assert got.pop(key) == {"replace": rows}
        expected.pop(key, None)
    assert got == expected

    rebuilt = {
        (node_id, name): set(rows)
        for node_id, relations in known_facts.items()
        for name, rows in relations.items()
    }
    for kind in ("removes", "inserts", "replaces"):
        for node_id, relations in getattr(shipped, kind).items():
            for name, rows in relations.items():
                if kind == "removes":
                    rebuilt[node_id, name].difference_update(rows)
                elif kind == "inserts":
                    rebuilt[node_id, name].update(rows)
                else:
                    rebuilt[node_id, name] = set(rows)
    assert {key: rows for key, rows in rebuilt.items() if rows} == {
        (node_id, name): set(rows)
        for node_id, node in system.nodes.items()
        for name, rows in node.database.facts().items()
        if rows
    }
