"""Tracing must be a pure observer: traced and untraced runs are identical.

Two guarantees ride on this suite.  First, opening a session with
``trace=True`` changes *nothing* about a run's outcome on any engine — same
final databases, same statistics — the only difference being
the trace document on ``RunResult.extras["trace"]``.  Second (the other half
of the same refactor), every engine assembles its :class:`StatsSnapshot`
through the one :class:`~repro.obs.metrics.MetricsRegistry` code path, so a
deterministic run produces *equal* snapshots, not just similar ones.

The deterministic runs (sync, under constant or seeded latency) are compared
bit-for-bit; the process-backed engines (multiproc, pooled, socket) schedule
deliveries at the mercy of the OS, so their message accounting legitimately
varies between runs — for those the suite pins the ground state and the
convergence invariant (per-node ``tuples_inserted``) instead.
"""

from dataclasses import replace

import pytest

from repro.api import ScenarioSpec, Session
from repro.core.fixpoint import ground_part
from repro.network.latency import UniformLatency
from repro.obs.export import trace_to_chrome, validate_chrome_trace
from repro.workloads.topologies import tree_topology

#: Engine label → spec transform.  Small topology: three of these spawn real
#: OS processes (and "socket" a TCP host fleet) per run.
ENGINES = {
    "sync": lambda spec: spec,
    "sync-seeded": lambda spec: spec.with_(latency=UniformLatency(0, 1, seed=5)),
    "multiproc": lambda spec: spec.with_(transport="multiproc", shards=2),
    "pooled": lambda spec: spec.with_(transport="pooled", shards=2),
    "socket": lambda spec: spec.with_(transport="socket", shards=2),
}

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
    def test_traced_runs_leave_results_bit_identical(self, engine):
        spec = ENGINES[engine](base_spec())
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

    def test_traced_multiproc_nests_worker_spans_under_one_run(self):
        spec = ENGINES["multiproc"](base_spec())
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

    @pytest.mark.parametrize(
        "engine", ("sync-seeded", "multiproc", "pooled", "socket")
    )
    def test_other_schedules_agree_on_tuples_inserted(self, engine):
        # Message counts depend on the delivery order even on the simulator;
        # the rows each node gains do not.
        _dbs, sync_result = _run(base_spec(), trace=False)
        _dbs, other_result = _run(ENGINES[engine](base_spec()), trace=False)
        inserted = {
            node: stats.tuples_inserted
            for node, stats in other_result.stats.nodes.items()
        }
        assert inserted == {
            node: stats.tuples_inserted
            for node, stats in sync_result.stats.nodes.items()
        }
