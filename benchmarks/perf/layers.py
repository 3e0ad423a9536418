"""Benchmark-side layer timers: self-time accounting around ``repro``'s layers.

The traced half of the benchmark needs to say which layer a second went to
without editing ``src/``.  :class:`LayerClock` therefore wraps the public
functions of each layer *from here*: every wrapper pushes a frame on a call
stack, and on return charges the layer its **self time** — the wrapper's
span minus the part of it that wrapped callees covered — so the layer
totals of one update add up to the span of its outermost wrapper instead of
counting nested work twice.

Wrappers are installed by rebinding names: methods on their class, and
module-level functions in *every* loaded ``repro`` module that holds a
reference (``from x import f`` copies the binding, so patching only the
defining module would miss the importers).  Sessions must be created after
:meth:`LayerClock.install` — peers register bound handler methods with their
transport when they are built.

The clock keeps one call stack, so wrapped code must run on one thread; the
workloads drive every in-process session from the main thread (the serving
workload's client threads call nothing that is wrapped).  Work done inside
pool worker processes is not wrapped — those layers are read from the PR 7
tracer's worker spans instead (:func:`span_totals`).
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Iterable, Mapping

class LayerClock:
    """Self-time, call and row counters per layer key, readable as marks."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Whole-call durations of the layers wrapped with ``keep=True``.
        self.durations: dict[str, list[float]] = defaultdict(list)
        self._stack: list[list[float]] = []

    # ------------------------------------------------------------- accounting

    def _enter(self) -> tuple[list[float], float]:
        frame = [0.0]
        self._stack.append(frame)
        return frame, perf_counter()

    def _leave(self, key: str, frame: list[float], started: float) -> float:
        elapsed = perf_counter() - started
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += elapsed
        self.seconds[key] += elapsed - frame[0]
        return elapsed

    def wrap(
        self,
        key: str,
        function: Callable,
        *,
        count_call: bool = True,
        keep: bool = False,
    ) -> Callable:
        """A wrapper charging ``key`` the self time of each ``function`` call."""

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            frame, started = self._enter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = self._leave(key, frame, started)
                if count_call:
                    self.calls[key] += 1
                if keep:
                    self.durations[key].append(elapsed)
            return result

        return wrapper

    def wrap_generator(self, key: str, function: Callable) -> Callable:
        """Like :meth:`wrap` for a generator function.

        A generator's work happens while its consumer iterates, so each
        resumption is timed on its own and ``<key>.yielded`` counts the
        items produced (the join's bindings).
        """
        yielded = key + ".yielded"

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            iterator = function(*args, **kwargs)
            while True:
                frame, started = self._enter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._leave(key, frame, started)
                self.calls[yielded] += 1
                yield item

        return wrapper

    def mark(self) -> tuple[dict[str, float], dict[str, int]]:
        """The totals so far; subtract two marks with :func:`since`."""
        return dict(self.seconds), dict(self.calls)

    def since(
        self, mark: tuple[Mapping[str, float], Mapping[str, int]]
    ) -> tuple[dict[str, float], dict[str, int]]:
        """Seconds and calls accumulated since ``mark``."""
        seconds, calls = mark
        return (
            {key: value - seconds.get(key, 0.0) for key, value in self.seconds.items()},
            {key: value - calls.get(key, 0) for key, value in self.calls.items()},
        )

    # ----------------------------------------------------------- installation

    def install(self) -> None:
        """Wrap every named layer function of ``repro``; call once per process."""
        # Everything that may hold a from-import of a wrapped function has to
        # be loaded before the rebinding pass below.
        import repro.analysis.analyzer as analyzer
        import repro.api.session as session_module
        import repro.baselines.centralized  # noqa: F401 - holds from-imports
        import repro.core.update as update
        import repro.database.database as database
        import repro.database.evaluate as evaluate
        import repro.serve.tenants  # noqa: F401 - holds from-imports
        from repro.network.message import Message
        from repro.network.transport import SyncTransport
        from repro.sharding.planner import ShardPlanner
        from repro.sharding.pool import WorkerPool
        from repro.sharding.sockets import LocalHostCluster, SocketPool
        from repro.stats.collector import StatisticsCollector

        for function in (evaluate.evaluate_body, evaluate.evaluate_body_delta):
            rebind(function, self.wrap_generator("database.evaluate", function))
        # evaluate_query drains evaluate_body: timed under the same key, but
        # the evaluation it performs is already counted as a call there.
        rebind(
            evaluate.evaluate_query,
            self.wrap("database.evaluate", evaluate.evaluate_query, count_call=False),
        )
        for key, function in (
            ("core.fragment_for", update.fragment_for),
            ("core.fragment_for", update.fragment_delta_for),
            ("core.join_fragments", update.join_fragments),
            ("analysis.preflight", analyzer.analyze),
        ):
            rebind(function, self.wrap(key, function))

        timed_chase = self.wrap(
            "database.chase", database.LocalDatabase.apply_view_tuples
        )

        def apply_view_tuples(local_db, rule_id, head, distinguished, answers):
            # Rows offered vs rows new, counted at the chase's own boundary.
            if not hasattr(answers, "__len__"):
                answers = tuple(answers)
            inserted = timed_chase(local_db, rule_id, head, distinguished, answers)
            self.calls["database.chase.offered"] += len(answers)
            self.calls["database.chase.new"] += len(inserted)
            return inserted

        database.LocalDatabase.apply_view_tuples = apply_view_tuples
        for name in ("on_query", "on_answer"):
            setattr(
                update.UpdateProtocol,
                name,
                self.wrap("core.handler", getattr(update.UpdateProtocol, name)),
            )
        Message.size_estimate = self.wrap(
            "network.size_estimate", Message.size_estimate
        )
        SyncTransport.run = self.wrap("network.transport", SyncTransport.run)
        for name in (
            "record_message",
            "record_query",
            "record_update",
            "record_incremental",
        ):
            setattr(
                StatisticsCollector,
                name,
                self.wrap("stats.record", getattr(StatisticsCollector, name)),
            )
        session_class = session_module.Session
        session_class.from_spec = classmethod(
            self.wrap("api.from_spec", session_class.from_spec.__func__)
        )
        ShardPlanner.plan = self.wrap("sharding.plan", ShardPlanner.plan)
        for pool_class in (WorkerPool, SocketPool):
            pool_class.spawn = classmethod(
                self.wrap("sharding.spawn", pool_class.spawn.__func__)
            )
            pool_class.run_phase = self.wrap(
                "sharding.run_phase", pool_class.run_phase, keep=True
            )
        # The socket engine builds its localhost host fleet as an argument
        # of SocketPool.spawn, i.e. just before the wrapper above starts.
        LocalHostCluster.__init__ = self.wrap(
            "sharding.spawn", LocalHostCluster.__init__, count_call=False
        )


def rebind(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


# ------------------------------------------------------------------ PR 7 spans


def span_totals(spans: Iterable[Mapping]) -> dict[str, float]:
    """Seconds per span kind in one run's trace.

    Coordinator spans keep their name (``sync``, ``ship``, ``quiescence``,
    ``collect``, ``merge``); every worker's ``chase`` spans are summed under
    ``worker_chase`` (worker busy time, all shards).
    """
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        duration = float(span["end"]) - float(span["start"])
        if span.get("process", "coordinator") == "coordinator":
            totals[span["name"]] += duration
        elif span["name"] == "chase":
            totals["worker_chase"] += duration
    return dict(totals)
