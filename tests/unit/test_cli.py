"""Unit tests for the command-line interface."""

import inspect
import json

import pytest

from repro.cli import EXPERIMENTS, build_parser, list_experiments, main
from repro.experiments import serving
from repro.experiments.serving import ServingRow
from repro.faults import FaultPlan, FaultSpec


def _kill_plan(path, *, max_cold_reruns):
    """A plan file that kills a worker mid-chase on the first run."""
    FaultPlan(
        seed=1,
        max_cold_reruns=max_cold_reruns,
        faults=[FaultSpec(kind="kill_worker", phase="chase", run_index=1)],
    ).dump_json(path)
    return str(path)


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_with_defaults(self):
        args = build_parser().parse_args(["run", "E1"])
        assert args.command == "run"
        assert args.experiment == "E1"
        assert args.records == 30

    def test_run_command_with_records(self):
        args = build_parser().parse_args(["run", "E4", "--records", "12"])
        assert args.records == 12

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "E99"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_shardhost_parser_binds_and_bounds(self):
        from repro.shardhost import build_parser as build_host_parser

        args = build_host_parser().parse_args(["--bind", "0.0.0.0:9101"])
        assert args.bind == "0.0.0.0:9101"
        args = build_host_parser().parse_args(["--max-frame", "1024"])
        assert args.max_frame == 1024


class TestExecution:
    def test_list_prints_all_twelve_experiments(self, capsys):
        text = list_experiments()
        out = capsys.readouterr().out
        assert out.strip() == text
        assert len(text.splitlines()) == 12
        assert text.splitlines()[0].startswith("E1")

    def test_main_list_exit_code(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E10" in out
        assert "E11" in out
        assert "E12" in out

    def test_serve_subcommand_forwards_arguments(self, capsys):
        # Option-like tokens reach the serve sub-CLI verbatim: main()
        # dispatches "serve" before the main parser runs, because
        # argparse.REMAINDER rejects leading options on some versions.
        assert main(["serve", "--preload", "paper"]) == 2
        assert "--preload needs --tenants" in capsys.readouterr().err
        assert main(["serve", "--bind", "no-port-here"]) == 2
        assert "bind" in capsys.readouterr().err.lower()

    def test_e12_client_flags(self):
        args = build_parser().parse_args(
            ["run", "E12", "--clients", "9", "--operations", "2"]
        )
        assert args.experiment == "E12"
        assert args.clients == 9
        assert args.operations == 2

    def test_main_runs_the_paper_example_experiment(self, capsys):
        assert main(["run", "E1"]) == 0
        out = capsys.readouterr().out
        assert "dependency paths" in out
        assert "ABCA" in out

    def test_main_runs_the_trace_experiment_with_limit(self, capsys):
        assert main(["run", "E2", "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "request_nodes" in out

    def test_e11_fails_when_a_row_is_not_ok(self, tmp_path, capsys):
        # Without a recovery budget the killed worker's run raises, so the
        # user-plan rows lose parity and the command must say so.
        plan = _kill_plan(tmp_path / "plan.json", max_cold_reruns=0)
        assert main(["run", "E11", "--faults", plan]) == 1
        captured = capsys.readouterr()
        assert "E11 —" in captured.out
        assert "not ok: user plan on" in captured.err

    def test_e11_writes_a_valid_trace_of_every_engine(self, tmp_path, capsys):
        plan = _kill_plan(tmp_path / "plan.json", max_cold_reruns=1)
        trace = str(tmp_path / "out.json")
        assert main(["run", "E11", "--faults", plan, "--trace", trace]) == 0
        assert main(["trace", "validate", trace]) == 0
        with open(trace, encoding="utf-8") as handle:
            events = json.load(handle)["traceEvents"]
        tracks = {
            event["args"]["name"] for event in events if event["ph"] == "M"
        }
        assert "coordinator" in tracks
        assert any(track.startswith("shard-") for track in tracks)

    @pytest.mark.parametrize(
        "argv",
        [["run", "E3", "--trace", "x.json"], ["run", "E1", "--faults", "plan.json"]],
    )
    def test_faults_and_trace_outside_e11_fail_loudly(self, argv, capsys):
        assert main(argv) == 2
        assert "apply only to E11" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--engine", "pooled"),
            ("--hosts", "h1:9101"),
            ("--repeats", "3"),
            ("--shards", "4"),
            ("--sizes", "127"),
        ],
    )
    def test_the_removed_sweep_flags_are_unrecognized(self, flag, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "E3", flag, value])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


class TestExperimentTable:
    @pytest.mark.parametrize(
        "argv, readers",
        [
            (["run", "E3", "--limit", "5"], "E2"),
            (["run", "E1", "--clients", "2"], "E12"),
            (["run", "E9", "--operations", "1"], "E12"),
        ],
    )
    def test_a_flag_the_experiment_does_not_read_is_refused(
        self, argv, readers, capsys
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"apply only to {readers}" in captured.err

    def test_every_flag_read_names_a_parameter_of_main(self):
        run_flags = vars(build_parser().parse_args(["run", "E1"]))
        for exp_id, (_about, run, reads) in EXPERIMENTS.items():
            parameters = inspect.signature(run).parameters
            for flag, parameter in reads.items():
                assert flag in run_flags, (exp_id, flag)
                assert parameter in parameters, (exp_id, parameter)

    def test_a_not_ok_e12_row_fails_the_run(self, monkeypatch, capsys):
        row = ServingRow(
            tenant="broken-tenant",
            clients=1,
            updates=1,
            queries=1,
            incremental=1,
            naive=0,
            rejected=0,
            errors=1,
            p50_ms=1.0,
            p95_ms=1.0,
        )
        monkeypatch.setattr(serving, "run_serving_sweep", lambda **_: [row])
        assert main(["run", "E12"]) == 1
        captured = capsys.readouterr()
        assert "E12 —" in captured.out
        assert "not ok: broken-tenant" in captured.err

    def test_a_failing_e11_run_still_writes_a_valid_trace(self, tmp_path, capsys):
        plan = _kill_plan(tmp_path / "plan.json", max_cold_reruns=0)
        trace = str(tmp_path / "out.json")
        assert main(["run", "E11", "--faults", plan, "--trace", trace]) == 1
        assert "not ok: user plan on" in capsys.readouterr().err
        assert main(["trace", "validate", trace]) == 0
