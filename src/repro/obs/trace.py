"""Structured spans: one run trace across coordinator and worker processes.

A :class:`Tracer` records *spans* — named intervals with a trace id, a span
id, a parent, wall-aligned start/end times and free-form attributes — around
the run phases of every engine: shard planning, world shipping, chase
iterations, delta sync, the quiescence barrier, merge.  Spans are measured
with ``time.perf_counter`` (monotonic) and converted to an epoch-anchored
wall timeline on export, so spans from different processes line up on one
axis.

Cross-process story: every worker process creates its own tracer (same trace
id, its own ``process`` label), records spans locally, and ships the drained
records home inside its ordinary result payload — over the existing worker
pipe or length-prefixed-frame channel, no new wire format.  The coordinator's
tracer :meth:`Tracer.adopt`\\ s them, re-parenting top-level worker spans
under the currently open run span and correcting clock offset when the
shipped wall clock disagrees with the local one by more than
:data:`CLOCK_SKEW_THRESHOLD` (same-host processes share ``time.time`` and
must *not* be shifted by queue latency; a remote host minutes off must be).

Tracing off is the default and costs nothing: engines fetch their tracer via
:func:`tracer_of`, which returns the no-op :data:`NULL_TRACER` unless a
:class:`~repro.api.session.Session` opened with ``trace=True`` attached a
real one to the system — results stay bit-identical either way, because the
trace only ever lands in ``RunResult.extras``.
"""

from __future__ import annotations

import time
import uuid
from typing import Any, Iterator, Mapping

#: Wall-clock disagreement (seconds) below which two processes are assumed to
#: share one clock.  Queue/frame transit on one host is milliseconds; real
#: cross-machine skew worth correcting is seconds to minutes.
CLOCK_SKEW_THRESHOLD = 1.0

#: One exported span record (a plain dict so it pickles and JSON-serialises).
SpanRecord = dict


class Span:
    """One open interval; call :meth:`set` to attach attributes before it ends."""

    __slots__ = ("name", "span_id", "parent_id", "attributes", "start", "end")

    def __init__(self, name: str, span_id: str, parent_id: str | None, **attributes):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attributes: dict[str, Any] = dict(attributes)
        self.start = time.perf_counter()
        self.end: float | None = None

    def set(self, **attributes: Any) -> None:
        """Attach (or overwrite) span attributes."""
        self.attributes.update(attributes)

    def __repr__(self) -> str:
        state = "open" if self.end is None else "closed"
        return f"Span({self.name!r}, {self.span_id}, {state})"


class _SpanContext:
    """Context manager pairing ``start_span``/``end_span`` around a block."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc_info: object) -> None:
        self._tracer.end_span(self._span)


class Tracer:
    """Span recorder for one process's view of a run trace.

    It records spans and owns no metrics: :meth:`Session.run
    <repro.api.session.Session.run>` observes each span of a run's trace
    into the statistics registry.  Finished spans are stored as plain,
    export-ready dict records (see :meth:`export` for the schema), so
    shipping them across a process boundary is free and :meth:`adopt` can
    append foreign records directly.
    """

    enabled = True

    def __init__(self, *, trace_id: str | None = None, process: str = "coordinator"):
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        self.process = process
        self._epoch_perf = time.perf_counter()
        self._epoch_wall = time.time()
        self._records: list[SpanRecord] = []
        self._stack: list[Span] = []
        self._next_id = 0

    # ---------------------------------------------------------------- spans

    def start_span(self, name: str, **attributes: Any) -> Span:
        """Open a span as a child of the innermost open span."""
        self._next_id += 1
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(name, f"{self.process}-{self._next_id}", parent, **attributes)
        self._stack.append(span)
        return span

    def end_span(self, span: Span, **attributes: Any) -> None:
        """Close a span and record it (tolerates out-of-order closes)."""
        if attributes:
            span.attributes.update(attributes)
        span.end = time.perf_counter()
        try:
            self._stack.remove(span)
        except ValueError:
            pass  # already closed (defensive; double end is a no-op record)
        else:
            self._records.append(self._record(span))

    def span(self, name: str, **attributes: Any) -> _SpanContext:
        """``with tracer.span("merge", shards=4) as s: ...``"""
        return _SpanContext(self, self.start_span(name, **attributes))

    def _wall(self, perf_time: float) -> float:
        return self._epoch_wall + (perf_time - self._epoch_perf)

    def _record(self, span: Span) -> SpanRecord:
        assert span.end is not None
        return {
            "trace_id": self.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "name": span.name,
            "process": self.process,
            "start": self._wall(span.start),
            "end": self._wall(span.end),
            "attributes": span.attributes,
        }

    # ------------------------------------------------------- export / adopt

    def mark(self) -> int:
        """A position marker; pass to :meth:`export` to slice one run's spans."""
        return len(self._records)

    def export(self, since: int = 0) -> list[SpanRecord]:
        """Finished span records (wall-aligned), oldest first."""
        return [dict(record) for record in self._records[since:]]

    def trace(self, since: int = 0) -> dict:
        """The trace document: ``{"trace_id", "process", "spans"}``."""
        return {
            "trace_id": self.trace_id,
            "process": self.process,
            "spans": self.export(since),
        }

    def drain(self) -> list[SpanRecord]:
        """Export all finished spans and forget them (the worker ship path).

        Open spans stay on the stack and are recorded by whichever drain
        follows their close, so a warm worker never re-ships old spans.
        """
        records, self._records = self.export(), []
        return records

    def adopt(
        self,
        records: list[SpanRecord],
        *,
        clock: float | None = None,
    ) -> None:
        """Append span records shipped from another process.

        ``clock`` is the shipper's ``time.time()`` at export; a disagreement
        with the local wall clock beyond :data:`CLOCK_SKEW_THRESHOLD` is
        treated as clock skew and subtracted from the shipped timestamps so
        cross-machine spans land on the coordinator's timeline.  Top-level
        shipped spans (no parent) are re-parented under the outermost open
        local span — the run span — so the whole run nests as one trace.
        """
        offset = 0.0
        if clock is not None:
            measured = time.time() - clock
            if abs(measured) >= CLOCK_SKEW_THRESHOLD:
                offset = measured
        parent = self._stack[0].span_id if self._stack else None
        for record in records:
            adopted = dict(record)
            adopted["trace_id"] = self.trace_id
            adopted["start"] += offset
            adopted["end"] += offset
            if adopted.get("parent_id") is None:
                adopted["parent_id"] = parent
            self._records.append(adopted)

    def __iter__(self) -> Iterator[SpanRecord]:
        return iter(self.export())

    def __repr__(self) -> str:
        return (
            f"Tracer({self.trace_id}, process={self.process!r}, "
            f"{len(self._records)} spans, {len(self._stack)} open)"
        )


# ---------------------------------------------------------------- null object


class _NullSpan:
    """The no-op span: ``set`` swallows attributes."""

    __slots__ = ()

    def set(self, **attributes: Any) -> None:
        pass


class _NullContext:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_SPAN = _NullSpan()
_NULL_CONTEXT = _NullContext()


class NullTracer:
    """The tracing-off tracer: every operation is a near-zero no-op.

    Engines call :func:`tracer_of` unconditionally; with tracing off they get
    this shared instance, so the instrumented code paths stay branch-free and
    results are bit-identical to the un-instrumented ones.
    """

    enabled = False
    trace_id = None
    process = "null"

    def span(self, name: str, **attributes: Any) -> _NullContext:
        return _NULL_CONTEXT

    def start_span(self, name: str, **attributes: Any) -> _NullSpan:
        return _NULL_SPAN

    def end_span(self, span: object, **attributes: Any) -> None:
        pass

    def adopt(self, records: object, *, clock: float | None = None) -> None:
        pass

    def mark(self) -> int:
        return 0

    def export(self, since: int = 0) -> list:
        return []

    def __repr__(self) -> str:
        return "NullTracer()"


NULL_TRACER = NullTracer()


def tracer_of(system: object) -> Tracer | NullTracer:
    """The system's attached tracer, or :data:`NULL_TRACER` when tracing is off."""
    tracer = getattr(system, "tracer", None)
    return tracer if tracer is not None else NULL_TRACER


def summarize(records: Mapping | list[SpanRecord]) -> dict[str, dict[str, float]]:
    """Per-span-name aggregates: count, total/mean/max wall seconds.

    Accepts a trace document (``{"spans": [...]}``) or a bare record list;
    :func:`repro.obs.export.format_trace_summary` renders the table.
    """
    spans = records.get("spans", []) if isinstance(records, Mapping) else records
    summary: dict[str, dict[str, float]] = {}
    for record in spans:
        duration = record["end"] - record["start"]
        entry = summary.setdefault(
            record["name"], {"count": 0, "total": 0.0, "max": 0.0}
        )
        entry["count"] += 1
        entry["total"] += duration
        entry["max"] = max(entry["max"], duration)
    for entry in summary.values():
        entry["mean"] = entry["total"] / entry["count"] if entry["count"] else 0.0
    return summary
