"""Observability: distributed tracing, metrics registry, exporters, logging.

Import surface::

    from repro.obs import Tracer, MetricsRegistry, tracer_of, NULL_TRACER

Exporters live in :mod:`repro.obs.export` (imported lazily by callers — it
depends on :mod:`repro.stats.report`, which in turn must be free to import
this package).
"""

from repro.obs.logs import configure_logging, get_logger
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import (
    CLOCK_SKEW_THRESHOLD,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    summarize,
    tracer_of,
)

__all__ = [
    "CLOCK_SKEW_THRESHOLD",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "configure_logging",
    "get_logger",
    "summarize",
    "tracer_of",
]
