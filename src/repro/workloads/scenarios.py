"""The paper's running example: the 5-node network of Section 2.

Nodes A–E with rules r1–r7, used by the dependency-path experiment (E1), the
execution-trace experiment (E2) and a large part of the test-suite.  The
parametric DBLP sharing networks of the scalability experiments (E3–E6) are
:meth:`repro.api.ScenarioSpec.from_topology`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.coordination.rule import CoordinationRule, NodeId, rule_from_text
from repro.database.relation import Row
from repro.database.schema import DatabaseSchema, RelationSchema
from repro.network.latency import LatencyModel

if TYPE_CHECKING:
    from repro.core.system import P2PSystem


def paper_example_schemas() -> dict[NodeId, DatabaseSchema]:
    """Schemas of the Section 2 example: A:a/2, B:b/2, C:c/2+f/1, D:d/2, E:e/2."""
    return {
        "A": DatabaseSchema([RelationSchema("a", ["x", "y"])]),
        "B": DatabaseSchema([RelationSchema("b", ["x", "y"])]),
        "C": DatabaseSchema(
            [RelationSchema("c", ["x", "y"]), RelationSchema("f", ["x"])]
        ),
        "D": DatabaseSchema([RelationSchema("d", ["x", "y"])]),
        "E": DatabaseSchema([RelationSchema("e", ["x", "y"])]),
    }


def paper_example_rules() -> list[CoordinationRule]:
    """The seven coordination rules r1–r7 of the Section 2 example.

    The technical report's listing of r2 and r7 contains obvious typos
    (``b(Y), Z`` for ``b(Y, Z)`` and upper-case relation names); the corrected
    reading used here matches the dependency edges and paths the paper derives
    from the rules.
    """
    return [
        rule_from_text("r1", "E: e(X, Y) -> B: b(X, Y)"),
        rule_from_text("r2", "B: b(X, Y), b(Y, Z) -> C: c(X, Z)"),
        rule_from_text("r3", "C: c(X, Y), c(Y, Z) -> B: b(X, Z)"),
        rule_from_text("r4", "B: b(X, Y), b(X, Z), X != Z -> A: a(X, Y)"),
        rule_from_text("r5", "A: a(X, Y) -> C: f(X)"),
        rule_from_text("r6", "A: a(X, Y) -> D: d(Y, X)"),
        rule_from_text("r7", "D: d(X, Y), d(Y, Z) -> C: c(X, Y)"),
    ]


def paper_example_data() -> dict[NodeId, dict[str, list[Row]]]:
    """Small initial data making every rule of the example fire at least once."""
    return {
        "A": {"a": [("a1", "a2")]},
        "B": {"b": [("m", "n"), ("n", "p"), ("m", "q")]},
        "C": {"c": [("u", "v"), ("v", "w")], "f": []},
        "D": {"d": [("k1", "k2"), ("k2", "k3")]},
        "E": {"e": [("s", "t"), ("t", "z")]},
    }


def build_paper_example(
    *,
    transport: str = "sync",
    propagation: str = "per_path",
    with_data: bool = True,
    latency: LatencyModel | None = None,
) -> P2PSystem:
    """Build the Section 2 example as a ready-to-run system.

    The faithful ``per_path`` propagation policy is the default here because
    the example is small and the execution-trace experiment (Figure 1) wants
    the duplicate queries the paper's statistics module counts.
    """
    # Imported lazily: repro.api sits above the workloads.
    from repro.api.spec import ScenarioSpec

    return ScenarioSpec.of(
        paper_example_schemas(),
        paper_example_rules(),
        paper_example_data() if with_data else None,
        transport=transport,
        propagation=propagation,
        latency=latency,
        super_peer="A",
    ).build_system()
