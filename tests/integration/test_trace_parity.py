"""Tracing must be a pure observer: traced and untraced runs are identical.

Two guarantees ride on this suite.  First, opening a session with
``trace=True`` changes *nothing* about a run's outcome on any engine — same
final databases, same statistics — the only difference being
the trace document on ``RunResult.extras["trace"]``.  Second (the other half
of the same refactor), every engine assembles its :class:`StatsSnapshot`
through the one :class:`~repro.obs.metrics.MetricsRegistry` code path, so a
deterministic run produces *equal* snapshots, not just similar ones.

The deterministic runs (sync, under constant or seeded latency) are compared
bit-for-bit; the process-backed engines (``tests/engines.py``) schedule
deliveries at the mercy of the OS, so their message accounting legitimately
varies between runs — for those the suite pins the ground state and the
convergence invariant (per-node ``tuples_inserted``) instead.
"""

import json
from collections import Counter
from dataclasses import replace

import pytest

from repro.api import ScenarioSpec, Session
from repro.core.fixpoint import ground_part
from repro.obs.export import trace_to_chrome, validate_chrome_trace
from repro.workloads.scenarios import (
    paper_example_data,
    paper_example_rules,
    paper_example_schemas,
)
from repro.workloads.topologies import tree_topology
from engines import ENGINES, PARTITIONED

#: Runs that are deterministic end to end (single-threaded scheduling, a
#: seeded schedule replays), so even the message counters must match exactly.
DETERMINISTIC = ("sync", "sync-seeded")


def base_spec() -> ScenarioSpec:
    return ScenarioSpec.from_topology(tree_topology(2, 2), records_per_node=3, seed=7)


def _run(spec: ScenarioSpec, *, trace: bool):
    with Session.from_spec(spec, trace=trace) as session:
        result = session.run("update")
        return session.databases(), result


def _comparable(snapshot):
    """A snapshot with the run-dependent wall clock zeroed."""
    return replace(snapshot, elapsed_wall_seconds=0.0)


class TestTraceParity:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_traced_runs_leave_results_bit_identical(self, engine, on_engine):
        spec = on_engine(base_spec(), engine)
        plain_dbs, plain = _run(spec, trace=False)
        traced_dbs, traced = _run(spec, trace=True)

        assert "trace" not in plain.extras
        assert ground_part(traced_dbs) == ground_part(plain_dbs)
        if engine in DETERMINISTIC:
            # Deterministic engines: byte-for-byte, nulls and counters too.
            assert traced_dbs == plain_dbs
            assert traced.completion_time == plain.completion_time
            assert _comparable(traced.stats) == _comparable(plain.stats)

        trace = traced.extras["trace"]
        assert validate_chrome_trace(trace_to_chrome(trace)) == []
        names = {span["name"] for span in trace["spans"]}
        assert "run" in names
        assert "chase" in names

    @pytest.mark.parametrize("engine", PARTITIONED)
    def test_traced_partitioned_runs_nest_worker_spans_under_one_run(
        self, engine, on_engine
    ):
        spec = on_engine(base_spec(), engine)
        _dbs, traced = _run(spec, trace=True)
        trace = traced.extras["trace"]
        spans = trace["spans"]

        processes = {span["process"] for span in spans}
        assert "coordinator" in processes
        assert any(process.startswith("shard-") for process in processes)
        assert len({span["trace_id"] for span in spans}) == 1

        # Every span — worker-side ones included — roots at the run span.
        run_spans = [span for span in spans if span["name"] == "run"]
        assert len(run_spans) == 1
        by_id = {span["span_id"]: span for span in spans}
        for span in spans:
            walked = span
            while walked["parent_id"] is not None:
                walked = by_id[walked["parent_id"]]
            assert walked["span_id"] == run_spans[0]["span_id"]

        # The run span carries the A6 chase-profile deltas (satellite of the
        # same PR: the projection check is no longer unprofiled).
        attributes = run_spans[0]["attributes"]
        assert attributes["a6_calls"] > 0
        assert attributes["a6_rows_inserted"] > 0

    def test_run_attributes_name_phase_and_engine(self):
        _dbs, traced = _run(base_spec(), trace=True)
        run_span = [
            span for span in traced.extras["trace"]["spans"] if span["name"] == "run"
        ][0]
        assert run_span["attributes"]["phase"] == "update"
        assert run_span["attributes"]["engine"] == "sync"
        assert run_span["attributes"]["messages"] == sum(
            traced.stats.messages.by_type.values()
        )


class TestOneSnapshotCodePath:
    """All engines assemble their snapshot through the metrics registry."""

    @pytest.mark.parametrize("engine", sorted(set(ENGINES) - {"sync"}))
    def test_other_schedules_agree_on_tuples_inserted(self, engine, on_engine):
        # Message counts depend on the delivery order even on the simulator;
        # the rows each node gains do not.
        _dbs, sync_result = _run(base_spec(), trace=False)
        _dbs, other_result = _run(on_engine(base_spec(), engine), trace=False)
        inserted = {
            node: stats.tuples_inserted
            for node, stats in other_result.stats.nodes.items()
        }
        assert inserted == {
            node: stats.tuples_inserted
            for node, stats in sync_result.stats.nodes.items()
        }


def _metrics(session: Session) -> dict:
    return json.loads(session.export_metrics("json"))


def _chase_counters(metrics: dict) -> dict[str, float]:
    return {
        counter["name"]: counter["value"]
        for counter in metrics["counters"]
        if counter["name"].startswith("repro_chase_")
    }


def _a6_as_counters(run_span: dict) -> dict[str, float]:
    """The run span's ``a6_*`` attributes under their counters' names."""
    return {
        f"repro_chase_{name.removeprefix('a6_')}_total": value
        for name, value in run_span["attributes"].items()
        if name.startswith("a6_")
    }


class TestOneMetricsStore:
    """A traced session keeps its span timings and A6 counters in the one
    statistics registry that ``export_metrics`` renders."""

    @pytest.fixture(scope="class")
    def pooled(self):
        spec = base_spec().with_(**ENGINES["pooled"])
        with Session.from_spec(spec, trace=True) as session:
            result = session.run("update")
            return result.extras["trace"]["spans"], _metrics(session)

    def test_every_span_of_the_run_is_observed_worker_spans_included(self, pooled):
        spans, metrics = pooled
        counted = Counter(span["name"] for span in spans)
        assert {"build", "chase", "run", "merge"} <= set(counted)
        assert any(span["process"] != "coordinator" for span in spans)
        observed = {
            histogram["labels"]["name"]: histogram["count"]
            for histogram in metrics["histograms"]
            if histogram["name"] == "repro_span_seconds"
        }
        assert observed == dict(counted)

    def test_the_chase_counters_are_the_run_span_attributes(self, pooled):
        spans, metrics = pooled
        (run_span,) = [span for span in spans if span["name"] == "run"]
        expected = _a6_as_counters(run_span)
        counters = _chase_counters(metrics)
        assert set(counters) == set(expected) and len(expected) == 6
        assert expected["repro_chase_calls_total"] > 0
        wall = "repro_chase_wall_seconds_total"
        assert counters.pop(wall) == pytest.approx(expected.pop(wall), abs=1e-6)
        assert counters == expected

    def test_a_reset_leaves_the_chase_counters_recording(self):
        with Session.from_spec(base_spec(), trace=True) as session:
            session.run("discovery")
            session.reset_statistics()
            spans = session.update().extras["trace"]["spans"]
            counters = _chase_counters(_metrics(session))
        (run_span,) = [span for span in spans if span["name"] == "run"]
        assert run_span["attributes"]["a6_calls"] > 0
        assert counters["repro_chase_calls_total"] == run_span["attributes"]["a6_calls"]


    def test_a_sync_run_observes_every_span_of_its_trace(self):
        with Session.from_spec(base_spec(), trace=True) as session:
            spans = session.run("update").extras["trace"]["spans"]
            metrics = _metrics(session)
        observed = {
            histogram["labels"]["name"]: histogram["count"]
            for histogram in metrics["histograms"]
            if histogram["name"] == "repro_span_seconds"
        }
        assert observed == dict(Counter(span["name"] for span in spans))

    def test_exporting_observes_nothing_and_leaves_the_store_alone(self):
        with Session.from_spec(base_spec(), trace=True) as session:
            session.run("update")
            first = session.export_metrics("prometheus")
            assert session.export_metrics("prometheus") == first
            # The run gauges ride on the export's copy, not on the store.
            assert session.system.stats.registry.gauges == {}
        assert "repro_simulated_time_seconds" in first

    def test_an_untraced_session_keeps_no_span_or_chase_metric(self):
        with Session.from_spec(base_spec()) as session:
            session.run("update")
            profiles = {n.database.profile for n in session.system.nodes.values()}
            metrics = _metrics(session)
        assert profiles == {None}
        assert _chase_counters(metrics) == {}
        assert metrics["histograms"] == []


def test_a_sync_chase_span_counts_the_deliveries_of_its_own_run():
    # The simulator's delivered count lives as long as the session; each
    # run's chase span must carry only that run's share of it: the first
    # update's, a one-row insert's delta run, and a run with nothing to do.
    delivered = []
    with Session.from_spec(base_spec(), trace=True) as session:
        session.run("discovery")
        for update in range(3):
            if update == 1:
                row = ("k", "title", "author", "year", "venue")
                session.system.node("n03").database.insert("pub", row)
            spans = session.update().extras["trace"]["spans"]
            (chase,) = [span for span in spans if span["name"] == "chase"]
            delivered.append(chase["attributes"]["delivered"])
    assert delivered == [62, 3, 0]


def test_the_run_span_counts_the_messages_of_its_own_run():
    # The paper example as examples/paper_example.py runs it: the update's
    # span reads its own 136 messages, not the session's 166.
    spec = ScenarioSpec.of(
        paper_example_schemas(),
        paper_example_rules(),
        paper_example_data(),
        super_peer="A",
        propagation="per_path",
    )
    with Session.from_spec(spec, trace=True) as session:
        counts = [
            span["attributes"]["messages"]
            for phase in ("discovery", "update")
            for span in session.run(phase).extras["trace"]["spans"]
            if span["name"] == "run"
        ]
        assert counts == [30, 136]
        assert session.snapshot_stats().total_messages == 166
