"""The metrics registry: counters, gauges and histograms with labels.

:class:`MetricsRegistry` is the one aggregation substrate of the
observability layer.  The per-run :class:`~repro.stats.collector.StatsSnapshot`
is assembled *from* a registry (see
:class:`~repro.stats.collector.StatisticsCollector`), worker processes ship
their registries home as plain :meth:`MetricsRegistry.dump` payloads, and the
coordinator folds them in with :meth:`MetricsRegistry.merge` — one code path
for counter aggregation whatever the engine.  Exporters
(:mod:`repro.obs.export`) render a registry as JSON or Prometheus text.

Merge semantics: counters and histograms are additive (every delivery is
recorded in exactly one process, so summing is double-count free); gauges
merge by maximum (they report levels, not flows — e.g. a shard's clock).
"""

from __future__ import annotations

from typing import Iterator, Mapping

#: Labels in their canonical, hashable form: sorted ``(key, value)`` pairs.
LabelItems = tuple[tuple[str, str], ...]

#: Default histogram bucket upper bounds (seconds-oriented, like Prometheus').
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    60.0,
)


def _label_items(labels: Mapping[str, object] | None) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


class Counter:
    """A monotonically increasing count (exposed for direct ``.value`` bumps)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems):
        self.name = name
        self.labels = labels
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be non-negative; not enforced for speed)."""
        self.value += amount


class Gauge:
    """A level that can go up and down (a clock, a queue depth, a pool size)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems):
        self.name = name
        self.labels = labels
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount


class Histogram:
    """Cumulative-bucket histogram (Prometheus ``le`` semantics)."""

    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count")

    def __init__(
        self,
        name: str,
        labels: LabelItems,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        self.name = name
        self.labels = labels
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * (len(self.buckets) + 1)  # +1 for the +Inf bucket
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.sum += value
        self.count += 1
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def cumulative_counts(self) -> list[int]:
        """Counts with ``le`` semantics: each bucket includes all below it."""
        total = 0
        cumulative = []
        for count in self.counts:
            total += count
            cumulative.append(total)
        return cumulative


class MetricsRegistry:
    """Named, labelled metrics with get-or-create access and dump/merge.

    Handles returned by :meth:`counter` / :meth:`gauge` / :meth:`histogram`
    stay valid until :meth:`reset`, so hot paths can cache them and bump
    ``.value`` directly.
    """

    def __init__(self) -> None:
        self.counters: dict[tuple[str, LabelItems], Counter] = {}
        self.gauges: dict[tuple[str, LabelItems], Gauge] = {}
        self.histograms: dict[tuple[str, LabelItems], Histogram] = {}
        self._help: dict[str, str] = {}

    # ---------------------------------------------------------------- access

    def describe(self, name: str, help_text: str) -> None:
        """Attach a ``# HELP`` line to a metric name (optional)."""
        self._help[name] = help_text

    def help_for(self, name: str) -> str:
        return self._help.get(name, name.replace("_", " "))

    def counter(self, name: str, labels: Mapping[str, object] | None = None) -> Counter:
        key = (name, _label_items(labels))
        metric = self.counters.get(key)
        if metric is None:
            metric = self.counters[key] = Counter(*key)
        return metric

    def gauge(self, name: str, labels: Mapping[str, object] | None = None) -> Gauge:
        key = (name, _label_items(labels))
        metric = self.gauges.get(key)
        if metric is None:
            metric = self.gauges[key] = Gauge(*key)
        return metric

    def histogram(
        self,
        name: str,
        labels: Mapping[str, object] | None = None,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        key = (name, _label_items(labels))
        metric = self.histograms.get(key)
        if metric is None:
            metric = self.histograms[key] = Histogram(key[0], key[1], buckets)
        return metric

    def __iter__(self) -> Iterator[Counter | Gauge | Histogram]:
        yield from self.counters.values()
        yield from self.gauges.values()
        yield from self.histograms.values()

    # ----------------------------------------------------------- dump / merge

    def dump(self) -> dict:
        """A picklable snapshot (the merge wire format), HELP texts included."""
        return {
            "help": dict(self._help),
            "counters": [
                (c.name, c.labels, c.value) for c in self.counters.values()
            ],
            "gauges": [(g.name, g.labels, g.value) for g in self.gauges.values()],
            "histograms": [
                (h.name, h.labels, h.buckets, tuple(h.counts), h.sum, h.count)
                for h in self.histograms.values()
            ],
        }

    def merge(
        self,
        dump: Mapping,
        *,
        extra_labels: Mapping[str, object] | None = None,
    ) -> None:
        """Fold a :meth:`dump` in: counters/histograms add, gauges take max.

        ``extra_labels`` are stamped onto every merged metric — the serving
        front-end uses this to fold many tenants' registries into one
        exposition with a distinguishing ``tenant`` label, the same way a
        Prometheus federation job would relabel scraped series.
        """
        extra = dict(extra_labels) if extra_labels else {}
        self._help.update(dump.get("help", ()))

        def relabel(labels: LabelItems) -> dict[str, object]:
            return {**dict(labels), **extra}

        for name, labels, value in dump.get("counters", ()):
            self.counter(name, relabel(labels)).value += value
        for name, labels, value in dump.get("gauges", ()):
            gauge = self.gauge(name, relabel(labels))
            gauge.value = max(gauge.value, value)
        for name, labels, buckets, counts, total, count in dump.get(
            "histograms", ()
        ):
            histogram = self.histogram(name, relabel(labels), buckets=tuple(buckets))
            if histogram.buckets != tuple(sorted(buckets)):
                # Different bucket layouts cannot be combined bucket-wise;
                # keep the receiver's layout and fold into sum/count only.
                histogram.sum += total
                histogram.count += count
                continue
            for index, bucket_count in enumerate(counts):
                histogram.counts[index] += bucket_count
            histogram.sum += total
            histogram.count += count

    def total(self, name: str) -> float:
        """Sum a counter across all of its label sets (0.0 when absent)."""
        return sum(
            counter.value
            for (counter_name, _), counter in self.counters.items()
            if counter_name == name
        )

    def reset(self) -> None:
        """Drop every metric (cached handles become stale — re-acquire them)."""
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
