"""The unified execution façade: one front door for every kind of run.

A :class:`Session` binds a :class:`~repro.core.system.P2PSystem` (the
state-holding substrate: nodes, rules, pipes, transport) to an
:class:`~repro.api.engine.ExecutionEngine` picked to match its transport, and
exposes the library's operations uniformly:

* ``session.run("discovery")`` / ``session.run("update")`` — the paper's two
  protocol phases, identical over the simulator and the process engines,
  each returning a :class:`~repro.api.result.RunResult`
  (``session.discover()`` and ``session.update()`` are shorthands),
* ``session.query(node, "q(X) :- item(X, Y)")`` — local query answering.

Sessions are built from a declarative :class:`~repro.api.spec.ScenarioSpec`
(:meth:`Session.from_spec`) or opened around an already assembled system
(``Session(spec.build_system())``).  A session also owns its
engine's resources: the ``pooled`` and ``socket`` engines keep worker OS
processes warm across runs, so use the session as a context manager (or call
:meth:`Session.close`) to stop them deterministically.  The layer map and
the run-time data flow are documented in ``docs/architecture.md``; the
engine selection guide in ``docs/engines.md``.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from typing import TYPE_CHECKING, Iterable

from repro.analysis.analyzer import analyze
from repro.analysis.diagnostics import AnalysisReport
from repro.api.engine import ExecutionEngine, engine_for
from repro.api.result import RunResult
from repro.api.spec import ScenarioSpec
from repro.coordination.changeset import Change, RelationMarks, rules_fingerprint
from repro.coordination.rule import CoordinationRule, NodeId
from repro.database.parser import parse_query
from repro.database.query import ConjunctiveQuery
from repro.database.relation import Row
from repro.database.schema import DatabaseSchema
from repro.errors import ReproError
from repro.obs import MetricsRegistry, Tracer
from repro.stats.collector import StatsSnapshot

if TYPE_CHECKING:
    from repro.core.system import P2PSystem
    from repro.faults.plan import FaultPlan

class Session:
    """Engine-agnostic execution of the paper's two phases over one system."""

    def __init__(
        self,
        system: P2PSystem,
        *,
        spec: ScenarioSpec | None = None,
        engine: ExecutionEngine | None = None,
        preflight: AnalysisReport | None = None,
        trace: bool = False,
        tracer: Tracer | None = None,
        faults: "FaultPlan | None" = None,
    ):
        self.system = system
        self.spec = spec
        # The static pre-flight report of the spec this session was opened
        # on (None for sessions built around an existing system or with
        # check=False); its warning codes ride along on every RunResult.
        self.preflight = preflight
        self.engine = engine if engine is not None else engine_for(system.transport)
        # The one reader of change (_changed): marks on every relation, built
        # by the first run, and the rules as of the previous run's start.
        self._marks: RelationMarks | None = None
        self._rules: tuple[CoordinationRule, ...] = ()
        self._version = -1
        # Tracing: off (the default) leaves every run bit-identical — no
        # tracer object is created and no span ever opens.  ``trace=True``
        # (or a spec with trace=True) builds a fresh coordinator tracer;
        # passing ``tracer=`` shares one across sessions (the experiment
        # drivers trace a whole sweep into a single timeline).
        if tracer is None and (trace or (spec is not None and spec.trace)):
            tracer = Tracer(process="coordinator")
        self.tracer = tracer
        if tracer is not None:
            system.tracer = tracer
            # The A6 counters ride on the databases so the projection check
            # can bump them without knowing about sessions.
            chase = system.stats.chase_handles()
            for node in system.nodes.values():
                node.database.profile = chase
        # Fault injection: a plan (passed directly or carried by the spec)
        # attaches a coordinator-side injector to the system; the engines
        # discover it via repro.faults.injector_of, exactly like the tracer.
        if faults is None and spec is not None:
            faults = spec.faults
        self.fault_injector = None
        if faults is not None:
            from repro.faults.injector import FaultInjector

            injector = FaultInjector(faults, registry=system.stats.registry)
            system.fault_injector = injector
            self.fault_injector = injector

    # ------------------------------------------------------------ construction

    @classmethod
    def from_spec(
        cls, spec: ScenarioSpec, *, check: bool = True, **settings: object
    ) -> "Session":
        """Assemble the spec's system and open a session on it.

        Before anything is built the spec goes through the static pre-flight
        analyzer (:func:`repro.analysis.analyze`): error-level diagnostics —
        a non-terminating rule set, schema mismatches — raise
        :class:`~repro.errors.ReproError` with the full report instead of
        letting the run discover them the hard way; warnings are kept on
        :attr:`Session.preflight` and tagged onto every
        :class:`~repro.api.result.RunResult` as
        ``extras["preflight_warnings"]``.  ``check=False`` skips the gate;
        ``settings`` (e.g. ``trace=True``) are forwarded to the
        :class:`Session` constructor.
        """
        report: AnalysisReport | None = None
        if check:
            report = analyze(spec)
            if not report.ok:
                raise ReproError(
                    "pre-flight analysis found error(s); fix the scenario or "
                    f"pass check=False to run anyway\n{report.render()}"
                )
        return cls(spec.build_system(), spec=spec, preflight=report, **settings)

    # -------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Release engine-held resources (idempotent).

        The ``sync`` engine holds none and this is a no-op; the ``pooled``
        and ``socket`` engines keep worker OS processes warm between runs and
        stop them here.  A closed session can keep running — the next run
        just respawns its workers cold.
        """
        close_engine = getattr(self.engine, "close", None)
        if callable(close_engine):
            close_engine()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ state

    def schemas(self) -> dict[NodeId, DatabaseSchema]:
        """Per-node schemas of the live system."""
        return {
            node_id: node.database.schema
            for node_id, node in self.system.nodes.items()
        }

    def rules(self) -> list[CoordinationRule]:
        """The currently installed coordination rules."""
        return list(self.system.registry)

    def databases(self) -> dict[NodeId, dict[str, frozenset[Row]]]:
        """A snapshot of every node's relation contents."""
        return self.system.databases()

    def snapshot_stats(self) -> StatsSnapshot:
        """The current statistics snapshot."""
        return self.system.snapshot_stats()

    def reset_statistics(self) -> None:
        """Reset all counters (the super-peer's reset command)."""
        self.system.reset_statistics()

    def metrics_registry(self) -> MetricsRegistry:
        """A copy of the statistics registry — the session's one metrics
        store, with a traced run's span histograms and A6 chase counters —
        plus the simulated clock (a gauge) and the runs' wall time (a
        counter); what both ``export_metrics`` and serve's ``/metrics``
        render."""
        collector = self.system.stats
        registry = MetricsRegistry()
        registry.merge(collector.registry.dump())
        registry.describe(
            "repro_simulated_time_seconds", "Simulated clock at the last snapshot."
        )
        registry.gauge("repro_simulated_time_seconds").set(collector.simulated_time)
        registry.describe(
            "repro_wall_seconds_total", "Cumulative wall-clock time of all runs."
        )
        registry.counter("repro_wall_seconds_total").inc(
            collector.elapsed_wall_seconds
        )
        return registry

    def export_metrics(self, format: str = "json") -> str:
        """:meth:`metrics_registry` in ``"json"`` or ``"prometheus"`` text form."""
        # Imported lazily: the exporters pull in the report formatter, which
        # sessions otherwise never need.
        from repro.obs.export import metrics_to_json, metrics_to_prometheus

        if format == "json":
            return json.dumps(metrics_to_json(self.metrics_registry()), indent=2)
        if format == "prometheus":
            return metrics_to_prometheus(self.metrics_registry())
        raise ReproError(
            f"unknown metrics format {format!r}; expected 'json' or 'prometheus'"
        )

    @property
    def super_peer(self) -> NodeId:
        """The system's designated super-peer."""
        return self.system.super_peer

    # ------------------------------------------------------------------- runs

    def _package(
        self,
        phase: str,
        completion: float,
        snapshot: StatsSnapshot,
        started: float,
    ) -> RunResult:
        system, preflight = self.system, self.preflight
        # The pre-flight warning codes ride along; a clean pre-flight adds
        # nothing, so results are bit-identical with check=True and
        # check=False — the parity the test-suite pins.
        extras: dict[str, object] = {}
        if preflight is not None and preflight.warnings:
            extras["preflight_warnings"] = tuple(d.code for d in preflight.warnings)
        return RunResult(
            phase=phase,
            engine=self.engine.name,
            completion_time=completion,
            wall_seconds=time.perf_counter() - started,
            stats=snapshot,
            databases=system.databases(),
            deltas=Change.read(system, self._marks),
            extras=extras,
            mode=system.mode,
        )

    def run(
        self, phase: str, *, origins: Iterable[NodeId] | None = None
    ) -> RunResult:
        """Run one protocol phase to quiescence, whatever the transport.

        ``phase`` is ``"discovery"`` or ``"update"``; ``origins`` are the
        initiating nodes (defaults: the super-peer for discovery, every node
        for the update).  On a traced session the run is wrapped in a ``run``
        span, the merged timeline lands on ``result.extras["trace"]``, and
        each of its spans is observed into ``repro_span_seconds{name}``.

        The engine is handed :meth:`_changed`, what changed between runs
        (:func:`repro.api.engine.start_run` decides by it); the result's
        ``deltas`` is the same marks read again after the run: one
        ``(relation, removals, len)`` per relation, no copy of any row, and
        only the relations written since are visited.
        """
        started = time.perf_counter()
        change = self._changed()
        system, tracer = self.system, self.tracer
        if tracer is None:
            completion, snapshot = self.engine.run(system, phase, origins, change)
            return self._package(phase, completion, snapshot, started)
        mark = tracer.mark()
        chase = system.stats.chase_handles()
        chase_before = chase.values()
        sent = system.stats.messages.total_messages
        with tracer.span("run", phase=phase, engine=self.engine.name) as span:
            completion, snapshot = self.engine.run(system, phase, origins, change)
            span.set(
                completion_time=completion,
                messages=system.stats.messages.total_messages - sent,
                **chase.attributes_since(chase_before),
            )
        trace = tracer.trace(since=mark)
        # Every span of the run, the adopted worker spans included.
        registry = system.stats.registry
        for record in trace["spans"]:
            registry.histogram("repro_span_seconds", {"name": record["name"]}).observe(
                record["end"] - record["start"]
            )
        result = self._package(phase, completion, snapshot, started)
        return replace(result, extras={**result.extras, "trace": trace})

    def _changed(self) -> Change | None:
        """What changed since the previous run's end: :meth:`Change.read
        <repro.coordination.changeset.Change.read>` over the marks, plus the
        rule edits when the registry's version moved.  None on the first
        run, which has nothing to compare with.
        """
        system = self.system
        registry = system.registry
        if self._marks is None:
            self._marks = RelationMarks(system)
            self._rules, self._version = tuple(registry), registry.version
            return None
        change = Change.read(system, self._marks)
        if registry.version == self._version:
            return change
        known = rules_fingerprint(self._rules)
        self._rules, self._version = tuple(registry), registry.version
        current = rules_fingerprint(self._rules)
        added = tuple(r for r in self._rules if known.get(r.rule_id) != r.text)
        removed = tuple(i for i, text in known.items() if current.get(i) != text)
        return replace(change, add_rules=added, remove_rules=removed)

    def discover(self, *, origins: Iterable[NodeId] | None = None) -> RunResult:
        """Shorthand for ``run("discovery")``."""
        return self.run("discovery", origins=origins)

    def update(self, *, origins: Iterable[NodeId] | None = None) -> RunResult:
        """Shorthand for ``run("update")``."""
        return self.run("update", origins=origins)

    # ---------------------------------------------------------------- queries

    def query(
        self, node_id: NodeId, query: ConjunctiveQuery | str
    ) -> set[tuple]:
        """Answer a query at ``node_id`` from its local data only."""
        if isinstance(query, str):
            query = parse_query(query)
        return self.system.local_query(node_id, query)

    def __repr__(self) -> str:
        return f"Session({self.system!r}, engine={self.engine.name!r})"
