"""Experiment E11 — convergence under injected faults (churn, loss, partitions).

The paper's protocol is defined over an idealised network; this experiment
measures what the reproduction adds on top: the same fix-point is reached —
bit-identical to a fault-free synchronous run — while workers are killed
mid-phase, inter-shard frames are dropped or delayed, and socket hosts are
partitioned away and healed.  Every scenario runs a seeded
:class:`~repro.faults.FaultPlan` against one engine and reports whether the
run converged (ground-state parity with the sync baseline), which typed
error it raised when recovery was declined, and the ``repro_fault_*``
counters the injectors left behind.

The final scenario demonstrates log-based reconciliation: two replicas of
one scenario diverge behind a simulated partition, then
:func:`repro.faults.reconcile` merges their :class:`Change` logs and both
converge to the union state.

``python -m repro run E11`` runs the built-in matrix;
``python -m repro run E11 --faults plan.json`` replays a plan of your own
against the pooled and socket engines instead.  ``--trace
out.json`` records every faulted session into one Chrome trace-event
timeline, worker spans included.  The run fails when any row is not ``ok``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.api.engine import transport_names
from repro.api.session import Session
from repro.api.spec import ScenarioSpec
from repro.errors import NetworkError, ReproError
from repro.experiments.runner import report
from repro.faults import FaultPlan, FaultSpec, reconcile
from repro.obs import Tracer
from repro.workloads.topologies import tree_topology


@dataclass(frozen=True)
class FaultRunRow:
    """One fault scenario: what was injected, what happened, what it cost."""

    label: str
    engine: str
    faults: str
    outcome: str
    parity: bool
    detected: int
    cold_reruns: int
    retries: int

    @property
    def ok(self) -> bool:
        """True when the run ended in its expected state."""
        return self.parity


def _baseline(scenario: ScenarioSpec):
    session = Session.from_spec(scenario)
    session.run("discovery")
    session.update()
    return session.system.databases()


def _fault_column(plan: FaultPlan) -> str:
    return ", ".join(
        f"{spec.kind}@{spec.phase}" for spec in plan.faults
    ) or "none"


def _run_plan(
    scenario: ScenarioSpec,
    baseline,
    *,
    label: str,
    transport: str,
    plan: FaultPlan,
    expect: str = "converged",
    tracer: Tracer | None = None,
) -> FaultRunRow:
    """Run one faulted session and grade it against the sync baseline."""
    spec = scenario.with_(transport=transport, shards=2, faults=plan)
    outcome = "converged"
    parity = False
    detected = cold = retries = 0
    with Session.from_spec(spec, tracer=tracer) as session:
        try:
            session.run("discovery")
            session.update()
        except NetworkError as error:
            outcome = f"raised {type(error).__name__}"
            parity = expect != "converged"
        else:
            parity = (
                expect == "converged"
                and session.system.databases() == baseline
            )
        registry = session.system.stats.registry
        detected = int(registry.total("repro_fault_detected_total"))
        cold = int(registry.total("repro_fault_cold_reruns_total"))
        retries = int(registry.total("repro_fault_retries_total"))
    return FaultRunRow(
        label=label,
        engine=transport,
        faults=_fault_column(plan),
        outcome=outcome,
        parity=parity,
        detected=detected,
        cold_reruns=cold,
        retries=retries,
    )


def _reconcile_row(scenario: ScenarioSpec, seed: int) -> FaultRunRow:
    """Diverge two replicas behind a simulated partition, then merge logs."""
    first = Session.from_spec(scenario)
    first.run("discovery")
    first.update()
    second = Session.from_spec(scenario)
    second.run("discovery")
    second.update()
    baseline = first.system.databases()

    node = sorted(first.system.nodes)[seed % len(first.system.nodes)]
    relation = sorted(first.system.node(node).database.facts())[0]
    arity = len(
        next(
            schema
            for schema in first.system.node(node).database.schema
            if schema.name == relation
        ).attributes
    )
    first.system.node(node).database.insert(
        relation, tuple(f"left-{k}" for k in range(arity))
    )
    second.system.node(node).database.insert(
        relation, tuple(f"right-{k}" for k in range(arity))
    )

    merged = reconcile([first, second], baseline)
    converged = first.system.databases() == second.system.databases()
    return FaultRunRow(
        label="partition log reconciliation",
        engine="sync",
        faults="divergent inserts",
        outcome=f"merged {merged.inserted_rows} row(s)",
        parity=converged,
        detected=0,
        cold_reruns=0,
        retries=0,
    )


def run_fault_matrix(
    *,
    records_per_node: int = 3,
    seed: int = 0,
    plan_path: str | None = None,
    tracer: Tracer | None = None,
) -> list[FaultRunRow]:
    """Run the chaos matrix (or a user-supplied plan) and grade every row.

    The built-in matrix covers the headline guarantees: a killed worker is
    detected and the run degrades to a cold re-run that still converges; the
    same kill without a recovery budget raises a typed error instead of
    hanging; dropped and delayed frames leave the fix-point bit-identical; a
    partition heals under retry-with-backoff; a permanent partition raises
    :class:`~repro.errors.PartitionError`; diverged replicas reconcile from
    their change logs.  ``tracer`` is shared by every faulted session.
    """
    topology = tree_topology(2, 2)
    scenario = ScenarioSpec.from_topology(
        topology, records_per_node=records_per_node, seed=seed
    )
    run = partial(_run_plan, scenario, _baseline(scenario), tracer=tracer)

    if plan_path is not None:
        plan = FaultPlan.load_json(plan_path)
        rows = []
        for transport in transport_names(partitioned=True):
            try:
                rows.append(
                    run(
                        label=f"user plan on {transport}",
                        transport=transport,
                        plan=plan,
                    )
                )
            except ReproError as error:
                # A plan can be engine-specific (partitions need sockets);
                # report the incompatibility as a row, not a crash.
                rows.append(
                    FaultRunRow(
                        label=f"user plan on {transport}",
                        engine=transport,
                        faults=_fault_column(plan),
                        outcome=f"inapplicable: {error}",
                        parity=True,
                        detected=0,
                        cold_reruns=0,
                        retries=0,
                    )
                )
        return rows

    rows = [
        run(
            label="kill worker, recovery budget 1",
            transport="pooled",
            plan=FaultPlan(
                seed=seed,
                max_cold_reruns=1,
                faults=[
                    FaultSpec(kind="kill_worker", phase="chase", run_index=1)
                ],
            ),
        ),
        run(
            label="kill worker, no recovery",
            transport="pooled",
            plan=FaultPlan(
                seed=seed,
                faults=[
                    FaultSpec(kind="kill_worker", phase="chase", run_index=1)
                ],
            ),
            expect="raised",
        ),
        run(
            label="drop + delay cross-shard frames",
            transport="pooled",
            plan=FaultPlan(
                seed=seed,
                faults=[
                    FaultSpec(kind="drop_frame", phase="chase", run_index=1),
                    FaultSpec(kind="delay_frame", phase="chase", run_index=1),
                ],
            ),
        ),
        run(
            label="partition, heals under backoff",
            transport="socket",
            plan=FaultPlan(
                seed=seed,
                send_retries=6,
                backoff=0.1,
                faults=[
                    FaultSpec(
                        kind="partition",
                        phase="quiescence",
                        run_index=1,
                        heal_after=0.3,
                    )
                ],
            ),
        ),
        run(
            label="permanent partition, no recovery",
            transport="socket",
            plan=FaultPlan(
                seed=seed,
                send_retries=2,
                faults=[
                    FaultSpec(
                        kind="partition",
                        phase="quiescence",
                        run_index=1,
                        heal_after=None,
                    )
                ],
            ),
            expect="raised",
        ),
        _reconcile_row(scenario, seed),
    ]
    return rows


def main(
    records_per_node: int = 3,
    seed: int = 0,
    plan_path: str | None = None,
    trace_path: str | None = None,
) -> str:
    """Print the fault-injection matrix table; raise if any row is not ok.

    ``trace_path`` (the CLI's ``--trace out.json``) traces every faulted
    session into one timeline, writes it as Chrome trace-event JSON (open it
    at https://ui.perfetto.dev) and appends the per-phase summary table —
    also when a row fails, so the trace of the failing run survives.
    """
    tracer = Tracer(process="coordinator") if trace_path else None
    rows = run_fault_matrix(
        records_per_node=records_per_node,
        seed=seed,
        plan_path=plan_path,
        tracer=tracer,
    )
    summary = ""
    try:
        table = report(
            f"E11 — convergence under injected faults (seed {seed}, "
            f"{records_per_node} records/node)",
            {
                "scenario": "label",
                "engine": "engine",
                "faults": "faults",
                "outcome": "outcome",
                "ok": "ok",
                "detected": "detected",
                "cold reruns": "cold_reruns",
                "retries": "retries",
            },
            rows,
        )
    finally:
        if tracer is not None and trace_path is not None:
            summary = "\n" + _write_trace(tracer, trace_path)
    return table + summary


def _write_trace(tracer: Tracer, path: str) -> str:
    """Write the Chrome trace, print its per-phase summary and return it."""
    from repro.obs.export import (
        chrome_trace_summary,
        format_trace_summary,
        trace_to_chrome,
        write_chrome_trace,
    )

    trace = tracer.trace()
    written = write_chrome_trace(trace, path)
    summary = format_trace_summary(chrome_trace_summary(trace_to_chrome(trace)))
    print(f"\ntrace written to {written} (open at https://ui.perfetto.dev)")
    print(summary)
    return summary
