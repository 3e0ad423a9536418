"""The unified execution façade: one front door for every kind of run.

A :class:`Session` binds a :class:`~repro.core.system.P2PSystem` (the
state-holding substrate: nodes, rules, pipes, transport) to an
:class:`~repro.api.engine.ExecutionEngine` picked to match its transport, and
exposes the library's operations uniformly:

* ``session.run("discovery")`` / ``session.run("update")`` — the paper's two
  protocol phases, identical over the simulator and the process engines,
* ``session.update(strategy="centralized")`` — one of the four
  :class:`~repro.api.strategies.UpdateStrategy` entries (the paper's algorithm
  or one of the three baselines), always returning a uniform
  :class:`~repro.api.result.RunResult`,
* ``session.query(node, "q(X) :- item(X, Y)")`` — local query answering.

Sessions are built from a declarative :class:`~repro.api.spec.ScenarioSpec`
(:meth:`Session.from_spec`) or opened around an already assembled system
(``Session(spec.build_system())``).  A session also owns its
engine's resources: the pooled multiproc engine keeps worker OS processes
warm across runs, so use the session as a context manager (or call
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
from repro.api.strategies import get_strategy
from repro.coordination.changeset import Change, RelationMarks
from repro.coordination.rule import CoordinationRule, NodeId
from repro.database.parser import parse_query
from repro.database.query import ConjunctiveQuery
from repro.database.relation import Row
from repro.database.schema import DatabaseSchema
from repro.errors import ReproError
from repro.obs import Tracer
from repro.stats.collector import StatsSnapshot

if TYPE_CHECKING:
    from repro.core.system import P2PSystem
    from repro.faults.plan import FaultPlan

class Session:
    """Engine-agnostic execution over one system, by any of four strategies."""

    def __init__(
        self,
        system: P2PSystem,
        *,
        spec: ScenarioSpec | None = None,
        engine: ExecutionEngine | None = None,
        strategy: str | None = None,
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
        self.default_strategy = (
            strategy
            if strategy is not None
            else (spec.strategy if spec is not None else "distributed")
        )
        # A run's deltas: marks on every relation, moved up at each run's
        # start past the writes made between runs (built by the first run).
        self._marks: RelationMarks | None = None
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
            # The A6 chase profile rides on the databases so the projection
            # check can bump counters without knowing about sessions.
            for node in system.nodes.values():
                node.database.profile = tracer.chase
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

        Most engines hold none and this is a no-op; the pooled multiproc
        engine keeps worker OS processes warm between runs and stops them
        here.  A closed session can keep running — the next pooled run just
        respawns its workers cold.
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

    def export_metrics(self, format: str = "json") -> str:
        """The session's metrics in ``"json"`` or ``"prometheus"`` text form.

        The export merges the statistics collector's registry (message and
        per-node counters), the tracer's span-duration histograms when the
        session is traced, and two run-level gauges (simulated clock,
        cumulative wall seconds) into one registry before rendering.
        """
        # Imported lazily: the exporters pull in the report formatter, which
        # sessions otherwise never need.
        from repro.obs.export import metrics_to_json, metrics_to_prometheus
        from repro.obs.metrics import MetricsRegistry

        collector = self.system.stats
        registry = MetricsRegistry()
        registry.merge(collector.registry.dump())
        for name in collector.registry._help:
            registry.describe(name, collector.registry.help_for(name))
        if self.tracer is not None:
            registry.merge(self.tracer.metrics.dump())
        registry.describe(
            "repro_simulated_time_seconds", "Simulated clock at the last snapshot."
        )
        registry.gauge("repro_simulated_time_seconds").set(collector.simulated_time)
        registry.describe(
            "repro_wall_seconds_total", "Cumulative wall-clock time of all runs."
        )
        registry.gauge("repro_wall_seconds_total").set(
            collector.elapsed_wall_seconds
        )
        if format == "json":
            return json.dumps(metrics_to_json(registry), indent=2)
        if format == "prometheus":
            return metrics_to_prometheus(registry)
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
        system = self.system
        return self._attach_preflight(
            RunResult(
                phase=phase,
                strategy=None,
                engine=self.engine.name,
                completion_time=completion,
                wall_seconds=time.perf_counter() - started,
                stats=snapshot,
                databases=system.databases(),
                deltas=Change.read(system, self._marks),
            )
        )

    def _attach_preflight(self, result: RunResult) -> RunResult:
        """Tag the pre-flight warning codes onto a result (no-op when clean).

        A clean pre-flight adds nothing, so results are bit-identical with
        ``check=True`` and ``check=False`` — the parity the test-suite pins.
        """
        if self.preflight is None or not self.preflight.warnings:
            return result
        if "preflight_warnings" in result.extras:
            return result
        codes = tuple(d.code for d in self.preflight.warnings)
        return replace(
            result, extras={**result.extras, "preflight_warnings": codes}
        )

    def run(
        self, phase: str, *, origins: Iterable[NodeId] | None = None
    ) -> RunResult:
        """Run one protocol phase to quiescence, whatever the transport.

        ``phase`` is ``"discovery"`` or ``"update"``; ``origins`` are the
        initiating nodes (defaults: the super-peer for discovery, every node
        for the update).  On a traced session the run is wrapped in a ``run``
        span and the merged timeline lands on ``result.extras["trace"]``.

        The result's ``deltas`` is :meth:`Change.read
        <repro.coordination.changeset.Change.read>` over relation marks moved
        up before the engine starts: one ``(relation, removals, len)`` per
        relation, no copy of any row, and only the relations written since
        are visited.
        """
        started = time.perf_counter()
        if self._marks is None:
            self._marks = RelationMarks(self.system)
        else:
            self._marks.mark(self.system)
        tracer = self.tracer
        if tracer is None:
            completion, snapshot = self.engine.run(self.system, phase, origins)
            return self._package(phase, completion, snapshot, started)
        mark = tracer.mark()
        chase_before = tracer.chase.snapshot()
        with tracer.span("run", phase=phase, engine=self.engine.name) as span:
            completion, snapshot = self.engine.run(self.system, phase, origins)
            span.set(
                completion_time=completion,
                messages=sum(snapshot.messages.by_type.values()),
                **tracer.chase.delta_attributes(chase_before),
            )
        result = self._package(phase, completion, snapshot, started)
        return replace(
            result, extras={**result.extras, "trace": tracer.trace(since=mark)}
        )

    def discover(self, *, origins: Iterable[NodeId] | None = None) -> RunResult:
        """Shorthand for ``run("discovery")``."""
        return self.run("discovery", origins=origins)

    def update(
        self,
        strategy: str | None = None,
        *,
        origins: Iterable[NodeId] | None = None,
        **options: object,
    ) -> RunResult:
        """Bring the network's data to a fix-point with the chosen strategy.

        ``strategy`` names one of the four strategies (default: the
        session's — usually ``"distributed"``); ``options`` are forwarded to
        it (e.g. ``force=True`` for ``"acyclic"``, ``node=``/``query=`` for
        ``"querytime"``).  The result's fields mean the same thing whichever
        strategy ran; a :class:`RunResult` with ``strategy`` set is returned.
        """
        name = strategy if strategy is not None else self.default_strategy
        result = get_strategy(name).run(self, origins=origins, **options)
        if result.strategy is None:
            # The distributed strategy delegates to run(); tag its origin.
            result = replace(result, strategy=name)
        return self._attach_preflight(result)

    # ---------------------------------------------------------------- queries

    def query(
        self, node_id: NodeId, query: ConjunctiveQuery | str
    ) -> set[tuple]:
        """Answer a query at ``node_id`` from its local data only."""
        if isinstance(query, str):
            query = parse_query(query)
        return self.system.local_query(node_id, query)

    def __repr__(self) -> str:
        return (
            f"Session({self.system!r}, engine={self.engine.name!r}, "
            f"strategy={self.default_strategy!r})"
        )
