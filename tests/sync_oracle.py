"""The warm pools' former sync, kept as a test oracle.

Until the coordinator↔worker boundary moved to cursors, the pool held a
frozenset copy of every relation its workers had and found what to re-ship
by set difference against the live system.  That is O(world) per run, which
is why production no longer does it — and exactly what makes it a good
oracle: it shares no code with the marks it checks
(:class:`repro.sharding.pool.WorldMirror`, :meth:`Change.read`).

``snapshot_of`` takes the copy, ``set_difference_delta`` diffs against it,
and ``assert_ships_what_the_oracle_ships`` states how the two may differ: a
relation that lost a row since the copy was taken is always rewritten whole
by the marks, even where the set difference comes out smaller (the row was
put back, or had never been shipped).
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
    replaces = {}
    relations = {}
    for node_id, node in system.nodes.items():
        mirrored = known_facts.get(node_id, {})
        for relation_name, rows in node.database.facts().items():
            old = mirrored.get(relation_name)
            if old is not None and rows == old:
                continue
            if old is not None and rows >= old:
                inserts.setdefault(node_id, {})[relation_name] = tuple(rows - old)
                continue
            # Rows vanished, or the relation is new to the workers: the
            # only always-correct move is a wholesale rewrite (a brand-new
            # relation with its schema, so it can be created).
            replaces.setdefault(node_id, {})[relation_name] = tuple(rows)
            if old is None:
                schema = node.database.relation(relation_name).schema
                relations[node_id] = (*relations.get(node_id, ()), schema)
    return Change(
        inserts=inserts,
        replaces=replaces,
        relations=relations,
        add_rules=add_rules,
        remove_rules=remove_rules,
    )


def _flat(delta: Change) -> dict:
    """``(node, relation) -> ("insert" | "replace", row set)``."""
    flat = {}
    for node_id, relations in delta.inserts.items():
        for name, rows in relations.items():
            assert len(set(rows)) == len(rows)
            flat[node_id, name] = ("insert", frozenset(rows))
    for node_id, relations in delta.replaces.items():
        for name, rows in relations.items():
            assert (node_id, name) not in flat
            flat[node_id, name] = ("replace", frozenset(rows))
    return flat


def assert_ships_what_the_oracle_ships(system, shipped, oracle, shrunk=()) -> None:
    """``shipped`` (from the marks) against ``oracle`` (the set difference).

    ``shrunk`` names the ``(node, relation)`` pairs that lost a row since the
    last sync; those must go out as a whole-relation replace, every other
    relation exactly as the oracle ships it.  Schemas travel for exactly the
    relations new to the workers.
    """
    assert shipped.add_rules == oracle.add_rules
    assert shipped.remove_rules == oracle.remove_rules
    assert {node: set(schemas) for node, schemas in shipped.relations.items()} == {
        node: set(schemas) for node, schemas in oracle.relations.items()
    }
    assert not shipped.removes
    got, expected = _flat(shipped), _flat(oracle)
    for key in shrunk:
        node_id, name = key
        rows = system.node(node_id).database.relation(name).rows()
        assert got.pop(key) == ("replace", rows)
        expected.pop(key, None)
    assert got == expected
