"""Unit tests for the observability layer: tracer, metrics, exporters, logs.

Covers the pieces the integration parity suite takes for granted: span
nesting and ids, mark/export slicing, the worker drain/adopt round trip with
and without clock skew, registry dump/merge semantics, the Prometheus and
Chrome trace-event renderings, the per-phase summary table, logging
configuration idempotence and the null tracer's no-op guarantees.
"""

import io
import json
import logging
import re

import pytest

from repro.obs import (
    CLOCK_SKEW_THRESHOLD,
    NULL_TRACER,
    MetricsRegistry,
    NullTracer,
    Tracer,
    configure_logging,
    get_logger,
    summarize,
    tracer_of,
)
from repro.obs.export import (
    chrome_trace_summary,
    format_trace_summary,
    metrics_to_json,
    metrics_to_prometheus,
    trace_to_chrome,
    validate_chrome_trace,
    write_chrome_trace,
)


class TestTracer:
    def test_spans_nest_under_the_innermost_open_span(self):
        tracer = Tracer(process="coordinator")
        with tracer.span("run") as run:
            with tracer.span("chase") as chase:
                pass
        records = tracer.export()
        assert [r["name"] for r in records] == ["chase", "run"]
        by_name = {r["name"]: r for r in records}
        assert by_name["run"]["parent_id"] is None
        assert by_name["chase"]["parent_id"] == run.span_id
        assert by_name["chase"]["span_id"] == chase.span_id
        assert all(r["end"] >= r["start"] for r in records)
        assert all(r["process"] == "coordinator" for r in records)
        assert len({r["trace_id"] for r in records}) == 1

    def test_span_ids_embed_the_process_label(self):
        tracer = Tracer(process="shard-3")
        with tracer.span("build"):
            pass
        assert tracer.export()[0]["span_id"].startswith("shard-3-")

    def test_attributes_set_at_open_and_before_close(self):
        tracer = Tracer()
        with tracer.span("merge", shards=4) as span:
            span.set(completion=6.0)
        record = tracer.export()[0]
        assert record["attributes"] == {"shards": 4, "completion": 6.0}

    def test_end_span_merges_final_attributes(self):
        tracer = Tracer()
        span = tracer.start_span("ship")
        tracer.end_span(span, worlds=2)
        assert tracer.export()[0]["attributes"] == {"worlds": 2}

    def test_double_close_records_once(self):
        tracer = Tracer()
        span = tracer.start_span("chase")
        tracer.end_span(span)
        tracer.end_span(span)
        assert len(tracer.export()) == 1

    def test_mark_slices_one_runs_spans(self):
        tracer = Tracer()
        with tracer.span("run"):
            pass
        mark = tracer.mark()
        with tracer.span("run"):
            pass
        assert len(tracer.export()) == 2
        assert len(tracer.export(since=mark)) == 1
        assert tracer.trace(since=mark)["spans"][0]["name"] == "run"

    def test_trace_document_shape(self):
        tracer = Tracer(process="coordinator")
        with tracer.span("run"):
            pass
        document = tracer.trace()
        assert document["trace_id"] == tracer.trace_id
        assert document["process"] == "coordinator"
        assert len(document["spans"]) == 1

    def test_drain_forgets_shipped_spans_but_keeps_open_ones(self):
        tracer = Tracer(process="shard-0")
        open_span = tracer.start_span("chase")
        with tracer.span("sync"):
            pass
        drained = tracer.drain()
        assert [r["name"] for r in drained] == ["sync"]
        assert tracer.export() == []
        tracer.end_span(open_span)
        assert [r["name"] for r in tracer.drain()] == ["chase"]


class TestAdopt:
    def _worker_records(self, shift: float = 0.0):
        worker = Tracer(trace_id="abc", process="shard-0")
        with worker.span("build"):
            with worker.span("chase"):
                pass
        records = worker.drain()
        for record in records:
            record["start"] += shift
            record["end"] += shift
        return records

    def test_adopted_top_level_spans_reparent_under_the_open_run_span(self):
        coordinator = Tracer(process="coordinator")
        run = coordinator.start_span("run")
        coordinator.adopt(self._worker_records())
        coordinator.end_span(run)
        by_name = {r["name"]: r for r in coordinator.export()}
        assert by_name["build"]["parent_id"] == run.span_id
        # Nested worker spans keep their worker-side parent.
        assert by_name["chase"]["parent_id"] == by_name["build"]["span_id"]
        # Adopted records join the coordinator's trace id.
        assert by_name["build"]["trace_id"] == coordinator.trace_id

    def test_same_host_clock_is_not_shifted_by_queue_latency(self):
        import time as _time

        coordinator = Tracer()
        records = self._worker_records()
        starts = [r["start"] for r in records]
        # The shipped clock lags by a realistic queue transit — far below
        # the skew threshold — and must be ignored.
        coordinator.adopt(records, clock=_time.time() - 0.05)
        assert [r["start"] for r in coordinator.export()] == starts

    def test_cross_machine_skew_is_corrected(self):
        import time as _time

        coordinator = Tracer()
        skew = 10 * CLOCK_SKEW_THRESHOLD
        records = self._worker_records(shift=-skew)
        starts = [r["start"] for r in records]
        coordinator.adopt(records, clock=_time.time() - skew)
        adopted = coordinator.export()
        for before, after in zip(starts, adopted):
            assert after["start"] == pytest.approx(before + skew, abs=0.5)

    def test_adopt_without_open_span_keeps_records_top_level(self):
        coordinator = Tracer()
        coordinator.adopt(self._worker_records())
        assert coordinator.export()[-1]["parent_id"] is None


class TestMetricsRegistry:
    def test_counter_gauge_histogram_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("msgs", {"type": "query"}).inc(3)
        registry.gauge("clock").set(7.5)
        registry.histogram("lat", buckets=(0.1, 1.0)).observe(0.5)

        other = MetricsRegistry()
        other.counter("msgs", {"type": "query"}).inc(2)
        other.gauge("clock").set(5.0)
        other.histogram("lat", buckets=(0.1, 1.0)).observe(0.05)
        other.merge(registry.dump())

        assert other.counter("msgs", {"type": "query"}).value == 5
        assert other.gauge("clock").value == 7.5  # gauges merge by max
        histogram = other.histogram("lat", buckets=(0.1, 1.0))
        assert histogram.count == 2
        assert histogram.cumulative_counts() == [1, 2, 2]

    def test_dump_is_picklable_plain_data(self):
        import pickle

        registry = MetricsRegistry()
        registry.counter("c", {"node": "A"}).inc()
        registry.histogram("h").observe(0.2)
        assert pickle.loads(pickle.dumps(registry.dump())) == registry.dump()

    def test_merge_with_mismatched_buckets_folds_sum_and_count_only(self):
        coarse = MetricsRegistry()
        coarse.histogram("lat", buckets=(1.0,)).observe(0.5)
        fine = MetricsRegistry()
        fine.histogram("lat", buckets=(0.1, 1.0)).observe(0.5)
        coarse.merge(fine.dump())
        histogram = coarse.histogram("lat", buckets=(1.0,))
        assert histogram.count == 2
        assert histogram.sum == pytest.approx(1.0)
        assert sum(histogram.counts) == 1  # foreign buckets were not folded

    def test_reset_invalidates_cached_handles(self):
        registry = MetricsRegistry()
        stale = registry.counter("c")
        stale.inc()
        registry.reset()
        assert registry.counter("c").value == 0
        assert registry.counter("c") is not stale

    def test_handles_stay_valid_between_calls(self):
        registry = MetricsRegistry()
        assert registry.counter("c", {"a": 1}) is registry.counter("c", {"a": 1})


class TestExport:
    def _trace(self):
        tracer = Tracer(process="coordinator")
        with tracer.span("run"):
            with tracer.span("chase", delivered=10):
                pass
        worker = Tracer(trace_id=tracer.trace_id, process="shard-0")
        with worker.span("build"):
            pass
        document = tracer.trace()
        document["spans"].extend(worker.drain())
        return document

    def test_chrome_trace_is_valid_and_json_serialisable(self):
        chrome = trace_to_chrome(self._trace())
        assert validate_chrome_trace(chrome) == []
        json.dumps(chrome)  # must not raise

    def test_chrome_trace_names_each_process_track(self):
        chrome = trace_to_chrome(self._trace())
        metadata = [e for e in chrome["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in metadata}
        assert names == {"coordinator", "shard-0"}
        # Distinct processes, distinct pids.
        assert len({e["pid"] for e in metadata}) == 2

    def test_chrome_trace_preserves_span_attributes(self):
        chrome = trace_to_chrome(self._trace())
        chase = [e for e in chrome["traceEvents"] if e["name"] == "chase"][0]
        assert chase["args"]["delivered"] == 10
        assert "span_id" in chase["args"]

    def test_validate_flags_malformed_documents(self):
        assert validate_chrome_trace([]) == ["document is not a JSON object"]
        assert validate_chrome_trace({}) == ["missing traceEvents list"]
        problems = validate_chrome_trace(
            {"traceEvents": [{"ph": "X", "name": "x", "pid": 1, "ts": 0, "dur": -1}]}
        )
        assert any("negative duration" in p for p in problems)

    def test_write_chrome_trace_round_trips(self, tmp_path):
        path = write_chrome_trace(self._trace(), tmp_path / "t.json")
        document = json.loads(path.read_text())
        assert validate_chrome_trace(document) == []
        summary = chrome_trace_summary(document)
        assert set(summary) == {"run", "chase", "build"}

    def test_summary_table_orders_phases_and_shows_share(self):
        table = format_trace_summary(summarize(self._trace()))
        lines = table.splitlines()
        phase_rows = [line.split("|")[0].strip() for line in lines[3:]]
        assert phase_rows == ["run", "build", "chase"]
        assert "share" in lines[1]
        assert "-" in lines[3]  # the run row carries no share

    def test_summarize_aggregates_per_name(self):
        records = [
            {"name": "chase", "start": 0.0, "end": 1.0},
            {"name": "chase", "start": 2.0, "end": 5.0},
        ]
        summary = summarize(records)
        assert summary["chase"]["count"] == 2
        assert summary["chase"]["total"] == pytest.approx(4.0)
        assert summary["chase"]["mean"] == pytest.approx(2.0)
        assert summary["chase"]["max"] == pytest.approx(3.0)

    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.describe("repro_messages_total", "Messages delivered.")
        registry.counter("repro_messages_total", {"type": "query"}).inc(4)
        registry.gauge("repro_clock_seconds").set(2.5)
        registry.histogram("repro_span_seconds", buckets=(0.1, 1.0)).observe(0.5)
        text = metrics_to_prometheus(registry)
        assert "# HELP repro_messages_total Messages delivered." in text
        assert "# TYPE repro_messages_total counter" in text
        assert 'repro_messages_total{type="query"} 4' in text
        assert "repro_clock_seconds 2.5" in text
        assert 'repro_span_seconds_bucket{le="1"} 1' in text
        assert 'repro_span_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_span_seconds_count 1" in text
        assert text.endswith("\n")

    def test_prometheus_groups_each_family_of_merged_registries(self):
        # Two tenants merged as /metrics merges them: every family's samples
        # must follow its one HELP/TYPE pair, whatever the merge order.
        tenant = MetricsRegistry()
        tenant.describe("repro_messages_total", "Messages delivered.")
        tenant.counter("repro_messages_total", {"type": "query"}).inc(2)
        tenant.counter("repro_node_queries_total", {"node": "a"}).inc(1)
        tenant.histogram("repro_span_seconds", {"name": "run"}).observe(0.5)
        merged = MetricsRegistry()
        merged.merge(tenant.dump(), extra_labels={"tenant": "t1"})
        merged.merge(tenant.dump(), extra_labels={"tenant": "t2"})
        lines = metrics_to_prometheus(merged).splitlines()
        types = [line.split()[2] for line in lines if line.startswith("# TYPE")]
        assert len(types) == len(set(types)) == 3
        samples = [line.split("{")[0] for line in lines if not line.startswith("#")]
        families = [re.sub("_(bucket|sum|count)$", "", name) for name in samples]
        # One unbroken run of samples per family, in the TYPE lines' order.
        runs = [f for i, f in enumerate(families) if families[i - 1 : i] != [f]]
        assert runs == types
        assert "# HELP repro_messages_total Messages delivered." in lines

    def test_dump_and_merge_carry_the_help_text(self):
        source = MetricsRegistry()
        source.describe("c", "A described counter.")
        source.counter("c").inc()
        target = MetricsRegistry()
        target.merge(source.dump())
        assert target.help_for("c") == "A described counter."

    def test_metrics_json_uses_cumulative_histogram_counts(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        registry.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        document = metrics_to_json(registry)
        assert document["histograms"][0]["counts"] == [1, 2, 2]


class TestLogging:
    def test_get_logger_names_children_of_the_obs_root(self):
        assert get_logger("pool").name == "repro.obs.pool"

    def test_configure_logging_is_idempotent(self):
        root = configure_logging(verbose=True)
        configure_logging(verbose=True)
        marked = [h for h in root.handlers if getattr(h, "_repro_obs", False)]
        assert len(marked) == 1
        assert root.level == logging.DEBUG
        configure_logging(verbose=False)
        assert root.level == logging.WARNING

    def test_verbose_streams_debug_records(self):
        stream = io.StringIO()
        configure_logging(verbose=True, stream=stream)
        get_logger("test").debug("hello from %s", "worker")
        configure_logging(verbose=False)  # restore the quiet default
        assert "hello from worker" in stream.getvalue()
        assert "repro.obs.test" in stream.getvalue()


class TestNullTracer:
    def test_tracer_of_defaults_to_the_shared_null_tracer(self):
        class Bare:
            pass

        system = Bare()
        assert tracer_of(system) is NULL_TRACER
        system.tracer = None
        assert tracer_of(system) is NULL_TRACER
        real = Tracer()
        system.tracer = real
        assert tracer_of(system) is real

    def test_null_operations_record_nothing(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        with tracer.span("run", phase="update") as span:
            span.set(anything=1)
        tracer.end_span(tracer.start_span("chase"))
        tracer.adopt([{"name": "x"}], clock=0.0)
        assert tracer.export() == []
        assert tracer.mark() == 0
