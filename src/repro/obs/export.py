"""Exporters: Chrome trace-event JSON (Perfetto), Prometheus text, summaries.

The trace documents produced by :meth:`repro.obs.trace.Tracer.trace` convert
to the Chrome trace-event format — a JSON object with a ``traceEvents`` list
of complete (``"ph": "X"``) events — which https://ui.perfetto.dev and
``chrome://tracing`` both open directly.  Each source process becomes a
Perfetto "process" track (via ``M`` metadata events), so coordinator and
shard-worker spans render as parallel swim-lanes under one run.

Metrics registries export as plain JSON (for machines) and as Prometheus
text exposition format (for scrapes and humans), including full
``_bucket``/``_sum``/``_count`` histogram series with cumulative ``le``
semantics.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import SpanRecord, summarize
from repro.stats.report import format_table

#: Stable ordering for the per-phase summary table: run phases first, in
#: their execution order, then anything else alphabetically.
_PHASE_ORDER = (
    "run",
    "plan",
    "build",
    "ship",
    "chase",
    "sync",
    "quiescence",
    "merge",
)


# ------------------------------------------------------------------- tracing


def trace_to_chrome(trace: Mapping | list[SpanRecord]) -> dict:
    """Convert a trace document (or bare span list) to Chrome trace events.

    Timestamps are microseconds; ``pid``/``tid`` are synthesised per source
    process label, with ``M`` (metadata) events naming each track so Perfetto
    shows ``coordinator`` / ``shard-0`` / ... instead of bare numbers.
    """
    spans = trace.get("spans", []) if isinstance(trace, Mapping) else trace
    processes: dict[str, int] = {}
    events: list[dict] = []
    for record in spans:
        process = record.get("process", "unknown")
        pid = processes.setdefault(process, len(processes) + 1)
        args = {
            key: value
            for key, value in record.get("attributes", {}).items()
            if isinstance(value, (str, int, float, bool)) or value is None
        }
        args["span_id"] = record["span_id"]
        if record.get("parent_id") is not None:
            args["parent_id"] = record["parent_id"]
        events.append(
            {
                "ph": "X",
                "name": record["name"],
                "cat": "repro",
                "ts": record["start"] * 1e6,
                "dur": (record["end"] - record["start"]) * 1e6,
                "pid": pid,
                "tid": 1,
                "args": args,
            }
        )
    for process, pid in processes.items():
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 1,
                "args": {"name": process},
            }
        )
    document = {"traceEvents": events, "displayTimeUnit": "ms"}
    if isinstance(trace, Mapping) and trace.get("trace_id"):
        document["otherData"] = {"trace_id": trace["trace_id"]}
    return document


def write_chrome_trace(trace: Mapping | list[SpanRecord], path: str | Path) -> Path:
    """Write ``trace`` as Chrome trace-event JSON; returns the path written."""
    target = Path(path)
    target.write_text(json.dumps(trace_to_chrome(trace), indent=2) + "\n")
    return target


def validate_chrome_trace(document: object) -> list[str]:
    """Schema-check a Chrome trace document; returns problems (empty = valid)."""
    problems: list[str] = []
    if not isinstance(document, Mapping):
        return ["document is not a JSON object"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["missing traceEvents list"]
    if not any(event.get("ph") == "X" for event in events if isinstance(event, Mapping)):
        problems.append("no complete ('X') span events")
    for index, event in enumerate(events):
        if not isinstance(event, Mapping):
            problems.append(f"event {index} is not an object")
            continue
        phase = event.get("ph")
        if phase not in ("X", "M"):
            problems.append(f"event {index}: unsupported phase {phase!r}")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"event {index}: missing name")
        if not isinstance(event.get("pid"), int):
            problems.append(f"event {index}: missing pid")
        if phase == "X":
            for field in ("ts", "dur"):
                if not isinstance(event.get(field), (int, float)):
                    problems.append(f"event {index}: missing {field}")
            if isinstance(event.get("dur"), (int, float)) and event["dur"] < 0:
                problems.append(f"event {index}: negative duration")
    return problems


def chrome_trace_summary(document: Mapping) -> dict[str, dict[str, float]]:
    """Per-phase aggregates from a Chrome trace document (µs → seconds)."""
    spans = [
        {
            "name": event["name"],
            "start": event["ts"] / 1e6,
            "end": (event["ts"] + event["dur"]) / 1e6,
        }
        for event in document.get("traceEvents", [])
        if isinstance(event, Mapping) and event.get("ph") == "X"
    ]
    return summarize(spans)


def format_trace_summary(summary: Mapping[str, Mapping[str, float]]) -> str:
    """Render a per-phase wall-clock table from :func:`summarize` output."""
    wall = sum(entry["total"] for name, entry in summary.items() if name != "run")
    ordered = sorted(
        summary,
        key=lambda name: (
            _PHASE_ORDER.index(name) if name in _PHASE_ORDER else len(_PHASE_ORDER),
            name,
        ),
    )
    rows = []
    for name in ordered:
        entry = summary[name]
        share = 0.0 if not wall or name == "run" else 100.0 * entry["total"] / wall
        rows.append(
            [
                name,
                int(entry["count"]),
                entry["total"],
                entry["mean"],
                entry["max"],
                "-" if name == "run" else f"{share:.1f}%",
            ]
        )
    return format_table(
        ["phase", "spans", "total s", "mean s", "max s", "share"],
        rows,
        title="Per-phase wall clock",
    )


# ------------------------------------------------------------------- metrics


def metrics_to_json(registry: MetricsRegistry) -> dict:
    """A JSON-ready rendering of every metric in ``registry``."""
    return {
        "counters": [
            {"name": c.name, "labels": dict(c.labels), "value": c.value}
            for c in registry.counters.values()
        ],
        "gauges": [
            {"name": g.name, "labels": dict(g.labels), "value": g.value}
            for g in registry.gauges.values()
        ],
        "histograms": [
            {
                "name": h.name,
                "labels": dict(h.labels),
                "buckets": list(h.buckets),
                "counts": h.cumulative_counts(),
                "sum": h.sum,
                "count": h.count,
            }
            for h in registry.histograms.values()
        ],
    }


def _prom_labels(labels: tuple[tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{key}="{_prom_escape(value)}"' for key, value in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _prom_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _prom_number(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def metrics_to_prometheus(registry: MetricsRegistry) -> str:
    """Render ``registry`` in the Prometheus text exposition format."""
    lines: list[str] = []

    def header(name: str, kind: str) -> None:
        lines.append(f"# HELP {name} {registry.help_for(name)}")
        lines.append(f"# TYPE {name} {kind}")

    seen: set[str] = set()
    for counter in registry.counters.values():
        if counter.name not in seen:
            seen.add(counter.name)
            header(counter.name, "counter")
        lines.append(
            f"{counter.name}{_prom_labels(counter.labels)}"
            f" {_prom_number(counter.value)}"
        )
    for gauge in registry.gauges.values():
        if gauge.name not in seen:
            seen.add(gauge.name)
            header(gauge.name, "gauge")
        lines.append(
            f"{gauge.name}{_prom_labels(gauge.labels)} {_prom_number(gauge.value)}"
        )
    for histogram in registry.histograms.values():
        if histogram.name not in seen:
            seen.add(histogram.name)
            header(histogram.name, "histogram")
        cumulative = histogram.cumulative_counts()
        bounds = [*histogram.buckets, float("inf")]
        for bound, count in zip(bounds, cumulative):
            le = "+Inf" if bound == float("inf") else _prom_number(bound)
            labels = _prom_labels(histogram.labels, f'le="{le}"')
            lines.append(f"{histogram.name}_bucket{labels} {count}")
        lines.append(
            f"{histogram.name}_sum{_prom_labels(histogram.labels)}"
            f" {_prom_number(histogram.sum)}"
        )
        lines.append(
            f"{histogram.name}_count{_prom_labels(histogram.labels)}"
            f" {histogram.count}"
        )
    return "\n".join(lines) + "\n" if lines else ""
