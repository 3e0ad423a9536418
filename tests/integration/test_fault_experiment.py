"""Integration tests of the fault-injection experiment (E11) at its real scale."""

import json
from pathlib import Path

import pytest

from repro.api.engine import transport_names
from repro.errors import ReproError
from repro.experiments.faults import main as faults_main
from repro.experiments.faults import run_fault_matrix
from repro.faults import FaultPlan, FaultSpec
from repro.obs import Tracer
from repro.obs.export import trace_to_chrome, validate_chrome_trace

#: ``python -m repro run E11`` output, regenerated only for a change meant
#: to move its table.
GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "E11.txt"


def _kill_plan(path, *, max_cold_reruns):
    """A plan file that kills a worker mid-chase on the first run."""
    FaultPlan(
        seed=1,
        max_cold_reruns=max_cold_reruns,
        faults=[FaultSpec(kind="kill_worker", phase="chase", run_index=1)],
    ).dump_json(path)
    return str(path)


def _tracks(document):
    return {
        event["args"]["name"]
        for event in document["traceEvents"]
        if event["ph"] == "M"
    }


@pytest.fixture(scope="module")
def matrix():
    return {row.label: row for row in run_fault_matrix()}


class TestBuiltInMatrix:
    def test_every_row_ends_in_its_expected_state(self, matrix):
        assert [label for label, row in matrix.items() if not row.ok] == []

    def test_every_partitioned_engine_runs_under_a_fault(self, matrix):
        faulted = {row.engine for row in matrix.values() if row.engine != "sync"}
        assert faulted == set(transport_names(partitioned=True))

    def test_a_recovery_budget_spends_one_cold_rerun(self, matrix):
        row = matrix["kill worker, recovery budget 1"]
        assert row.outcome == "converged"
        assert row.detected == 1
        assert row.cold_reruns == 1

    def test_the_table_matches_the_golden(self, matrix, monkeypatch, capsys):
        # The matrix is seeded, so its table prints byte for byte; main()
        # prints the fixture's rows rather than running the matrix again.
        monkeypatch.setattr(
            "repro.experiments.faults.run_fault_matrix",
            lambda **_: list(matrix.values()),
        )
        faults_main()
        assert capsys.readouterr().out == GOLDEN.read_text(encoding="utf-8")

    def test_a_kill_without_recovery_raises_instead_of_hanging(self, matrix):
        row = matrix["kill worker, no recovery"]
        assert row.outcome == "raised NetworkError"
        assert row.detected == 1
        assert row.cold_reruns == 0


class TestUserPlan:
    def test_a_plan_replays_on_every_partitioned_engine(self, tmp_path):
        plan = _kill_plan(tmp_path / "plan.json", max_cold_reruns=1)
        rows = run_fault_matrix(plan_path=plan)
        assert [row.label for row in rows] == [
            f"user plan on {transport}"
            for transport in transport_names(partitioned=True)
        ]
        assert all(row.ok for row in rows)

    def test_one_tracer_records_the_coordinator_and_the_workers(self, tmp_path):
        plan = _kill_plan(tmp_path / "plan.json", max_cold_reruns=1)
        tracer = Tracer(process="coordinator")
        run_fault_matrix(plan_path=plan, tracer=tracer)
        document = trace_to_chrome(tracer.trace())
        assert validate_chrome_trace(document) == []
        tracks = _tracks(document)
        assert "coordinator" in tracks
        assert any(track.startswith("shard-") for track in tracks)


class TestMain:
    def test_the_table_prints_before_the_failed_rows_are_named(
        self, tmp_path, capsys
    ):
        plan = _kill_plan(tmp_path / "plan.json", max_cold_reruns=0)
        with pytest.raises(ReproError) as excinfo:
            faults_main(plan_path=plan)
        assert "E11 —" in capsys.readouterr().out
        failed = [
            transport
            for transport in transport_names(partitioned=True)
            if f"user plan on {transport}" in str(excinfo.value)
        ]
        assert failed, str(excinfo.value)

    def test_tracing_writes_the_file_and_appends_the_phase_summary(
        self, tmp_path, capsys
    ):
        plan = _kill_plan(tmp_path / "plan.json", max_cold_reruns=1)
        trace = tmp_path / "out.json"
        text = faults_main(plan_path=plan, trace_path=str(trace))
        out = capsys.readouterr().out
        assert f"trace written to {trace}" in out
        assert validate_chrome_trace(json.loads(trace.read_text())) == []
        assert "Per-phase wall clock" in text
        assert text.index("E11 —") < text.index("Per-phase wall clock")
