#!/usr/bin/env python3
"""Dynamic networks: peers join and leave while the update runs (Section 4).

A small content-sharing tree starts its global update; while messages are
still in flight, new coordination rules are added (a peer "joins" by linking
to an existing one) and others are deleted (a link "disappears").  The run
still terminates and the final databases are checked against the sound /
complete envelopes of Definition 9 — the reproduction of Theorem 2.

Run with::

    python examples/dynamic_network.py
"""

from __future__ import annotations

from repro import (
    NetworkChange,
    ScenarioSpec,
    SuperPeer,
    complete_envelope,
    is_complete_answer,
    is_sound_answer,
    rule_from_text,
    sound_envelope,
)
from repro.core.dynamics import apply_change_interleaved
from repro.workloads import tree_topology


def main() -> None:
    spec = tree_topology(depth=2, fanout=2)
    scenario = ScenarioSpec.from_topology(spec, records_per_node=25)
    system = scenario.build_system()
    schemas, data, initial_rules = scenario.schemas, scenario.data, scenario.rules

    # The change: while the update runs, the deepest leaf additionally starts
    # feeding the root directly (addLink), and one existing link disappears.
    root, leaf = spec.nodes[0], spec.nodes[-1]
    leaf_variant = spec.variant_of(leaf)
    if leaf_variant == "wide":
        body = f"{leaf}: pub(K, TI, AU, YR, VE)"
    elif leaf_variant == "split":
        body = f"{leaf}: article(K, TI, YR, VE), authored(K, AU)"
    else:
        body = f"{leaf}: work(K, TI), venue_of(K, VE, YR), author_of(K, AU)"
    root_variant = spec.variant_of(root)
    head = {
        "wide": f"{root}: pub(K, TI, AU, YR, VE)",
        "split": f"{root}: article(K, TI, YR, VE)",
        "norm": f"{root}: work(K, TI)",
    }[root_variant]
    new_rule = rule_from_text("shortcut", f"{body} -> {head}")

    dropped = initial_rules[-1]
    change = (
        NetworkChange()
        .add_link(new_rule)
        .delete_link(dropped.target, dropped.sources[0], dropped.rule_id)
    )
    print("change to apply while the update is running:")
    print("   addLink   :", new_rule)
    print("   deleteLink:", dropped.rule_id)

    # Start the update everywhere, interleave the change with deliveries.
    super_peer = SuperPeer(system)
    for node_id in sorted(system.nodes):
        system.node(node_id).update.start()
    completion = apply_change_interleaved(system, change, steps_between=8)

    measured = system.databases()
    upper = sound_envelope(schemas, initial_rules, change, data)
    lower = complete_envelope(schemas, initial_rules, change, data)
    stats = super_peer.collect_statistics()

    print(f"\nupdate terminated at simulated time {completion:.1f} "
          f"after {stats.total_messages} messages")
    print("sound    (⊆ all-adds-first reference):", is_sound_answer(measured, upper))
    complete = is_complete_answer(measured, lower)
    print("complete (⊇ all-deletes-first reference):", complete)
    root_rows = sum(len(rows) for rows in measured[root].values())
    print(f"root peer {root!r} now holds {root_rows} rows")


if __name__ == "__main__":
    main()
