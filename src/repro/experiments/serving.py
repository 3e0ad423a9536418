"""Experiment E12 — the serving front-end under closed-loop multi-tenant load.

The other experiments run one network to its fix-point and exit; this one
measures the reproduction as a *service*: an in-process
:class:`~repro.serve.ServerHandle` hosts two warm tenants — the Section 2
paper example and a DBLP sharing workload on a tree — while closed-loop
clients interleave insert-only updates with concurrent read-only queries
over plain HTTP.  Each tenant's row reports how many update runs stayed on
the delta-driven incremental path (all of them, when the load is
insert-only), the p50/p95 request latencies, and that admission control
turned overload into typed rejections rather than errors — no 5xx under a
fault-free run is part of the serving contract (``docs/serving.md``).

``python -m repro run E12`` runs the sweep with small defaults; the
``serve_mixed`` workload of ``benchmarks/perf`` measures a served tenant
under closed-loop load.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass

from repro.api.spec import ScenarioSpec
from repro.coordination.rule import CoordinationRule
from repro.errors import ReproError
from repro.serve import ServeClient, ServeError, ServerConfig, ServerHandle
from repro.stats.report import format_table
from repro.workloads.scenarios import (
    paper_example_data,
    paper_example_rules,
    paper_example_schemas,
)
from repro.workloads.topologies import tree_topology


@dataclass(frozen=True)
class ServingRow:
    """One tenant's share of the closed-loop sweep."""

    tenant: str
    clients: int
    updates: int
    queries: int
    incremental: int
    naive: int
    rejected: int
    errors: int
    p50_ms: float
    p95_ms: float

    @property
    def ok(self) -> bool:
        """The serving contract: every op answered, no 5xx, warm deltas."""
        return self.errors == 0 and self.naive == 0


def sweep_specs(records_per_node: int = 3, seed: int = 0) -> dict[str, ScenarioSpec]:
    """The two tenants of the sweep (name → spec, cold transports).

    The serving layer re-targets them onto warm pools at load time
    (:func:`repro.serve.warm_spec`), which is exactly what the experiment
    is measuring.
    """
    paper = ScenarioSpec.of(
        paper_example_schemas(),
        paper_example_rules(),
        paper_example_data(),
        super_peer="A",
        name="paper-example",
    )
    tree = ScenarioSpec.from_topology(
        tree_topology(2, 2), records_per_node=records_per_node, seed=seed
    )
    return {"paper": paper, "tree": tree}


def feeding_site(spec: ScenarioSpec) -> tuple[str, str, int]:
    """(node, relation, arity) of a fresh-insert site with consequences.

    Picks the first single-atom-body coordination rule (sorted by id): a
    fresh row in its exporter's body relation forces at least the importer
    to derive something, so every update run has real work to do — the same
    idiom the incremental tests and benchmarks use.
    """
    rules: tuple[CoordinationRule, ...] = tuple(spec.rules)
    for rule in sorted(rules, key=lambda rule: rule.rule_id):
        if len(rule.body) == 1:
            exporter, atom = rule.body[0]
            return str(exporter), atom.relation, len(atom.terms)
    raise ReproError(f"spec {spec.name!r} has no single-atom-body rule")


def query_for(relation: str, arity: int) -> str:
    """A full-relation conjunctive query (``q(V0, V1) :- rel(V0, V1)``)."""
    variables = ", ".join(f"V{i}" for i in range(arity))
    return f"q({variables}) :- {relation}({variables})"


def _percentile(samples: list[float], fraction: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def run_serving_sweep(
    *,
    records_per_node: int = 3,
    clients: int = 4,
    operations: int = 4,
    seed: int = 0,
    queue_depth: int = 64,
    max_workers: int = 4,
) -> list[ServingRow]:
    """Drive both tenants with closed-loop clients; return one row each.

    Every client alternates an insert-only update (fresh rows, so the warm
    pool's delta path has something to seed) with a full-relation query.
    429/503 rejections honour their ``Retry-After`` and retry — that is
    what "closed loop" means — while anything 5xx-without-a-type or
    transport-level counts as an error and fails the row.
    """
    specs = sweep_specs(records_per_node, seed)
    rows: list[ServingRow] = []
    config = ServerConfig(port=0, queue_depth=queue_depth, max_workers=max_workers)
    with ServerHandle(config) as handle:
        setup = ServeClient(handle.host, handle.port)
        for name, spec in specs.items():
            setup.create_tenant(name, json.loads(spec.dump_json()))
        for name, spec in specs.items():
            node, relation, arity = feeding_site(spec)
            query_text = query_for(relation, arity)
            latencies: list[float] = []
            counts = {
                "updates": 0,
                "queries": 0,
                "incremental": 0,
                "naive": 0,
                "rejected": 0,
                "errors": 0,
            }
            lock = threading.Lock()

            def client_loop(client_id: int, tenant: str = name) -> None:
                client = ServeClient(handle.host, handle.port)
                try:
                    for op in range(operations):
                        row = [
                            f"{tenant}-c{client_id}-o{op}-{i}" for i in range(arity)
                        ]
                        for call, kind in (
                            (
                                lambda: client.update(
                                    tenant, inserts={node: {relation: [row]}}
                                ),
                                "updates",
                            ),
                            (
                                lambda: client.query(tenant, node, query_text),
                                "queries",
                            ),
                        ):
                            started = time.perf_counter()
                            while True:
                                try:
                                    outcome = call()
                                except ServeError as error:
                                    if error.status in (429, 503):
                                        with lock:
                                            counts["rejected"] += 1
                                        time.sleep(error.retry_after or 0.05)
                                        continue
                                    with lock:
                                        counts["errors"] += 1
                                    break
                                with lock:
                                    latencies.append(
                                        time.perf_counter() - started
                                    )
                                    counts[kind] += 1
                                    if kind == "updates":
                                        mode = outcome.get("mode", "naive")
                                        key = (
                                            "incremental"
                                            if mode == "incremental"
                                            else "naive"
                                        )
                                        counts[key] += 1
                                break
                finally:
                    client.close()

            threads = [
                threading.Thread(target=client_loop, args=(client_id,))
                for client_id in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            rows.append(
                ServingRow(
                    tenant=name,
                    clients=clients,
                    updates=counts["updates"],
                    queries=counts["queries"],
                    incremental=counts["incremental"],
                    naive=counts["naive"],
                    rejected=counts["rejected"],
                    errors=counts["errors"],
                    p50_ms=round(_percentile(latencies, 0.50) * 1000, 2),
                    p95_ms=round(_percentile(latencies, 0.95) * 1000, 2),
                )
            )
        setup.close()
    return rows


def main(
    *,
    records_per_node: int = 3,
    clients: int = 4,
    operations: int = 4,
    seed: int = 0,
) -> str:
    """Print the serving sweep table."""
    rows = run_serving_sweep(
        records_per_node=records_per_node,
        clients=clients,
        operations=operations,
        seed=seed,
    )
    table = format_table(
        [
            "tenant",
            "clients",
            "updates",
            "queries",
            "incremental",
            "naive",
            "rejected",
            "errors",
            "p50 ms",
            "p95 ms",
            "ok",
        ],
        [
            [
                row.tenant,
                row.clients,
                row.updates,
                row.queries,
                row.incremental,
                row.naive,
                row.rejected,
                row.errors,
                row.p50_ms,
                row.p95_ms,
                row.ok,
            ]
            for row in rows
        ],
        title=(
            f"E12 — multi-tenant serving, {clients} closed-loop clients x "
            f"{operations} update+query pairs per tenant (seed {seed})"
        ),
    )
    print(table)
    return table

