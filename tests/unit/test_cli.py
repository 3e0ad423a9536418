"""Unit tests for the command-line interface."""

import pytest

from repro.cli import _parse_hosts, _parse_sizes, build_parser, list_experiments, main
from repro.errors import ReproError


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

    def test_engine_and_shard_flags(self):
        args = build_parser().parse_args(
            ["run", "E3", "--engine", "multiproc", "--shards", "8", "--sizes", "63"]
        )
        assert args.engine == "multiproc"
        assert args.shards == 8
        assert args.sizes == "63"
        assert args.shard_records == 3

    def test_engine_defaults_to_sync(self):
        args = build_parser().parse_args(["run", "E3"])
        assert args.engine == "sync"

    def test_unknown_engine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "E3", "--engine", "warp"])

    def test_parse_sizes(self):
        assert _parse_sizes("127,511") == (127, 511)
        assert _parse_sizes("63") == (63,)
        with pytest.raises(ReproError):
            _parse_sizes("63,oops")
        with pytest.raises(ReproError):
            _parse_sizes("")

    def test_socket_engine_and_hosts_flags(self):
        args = build_parser().parse_args(
            ["run", "E3", "--engine", "socket", "--hosts", "h1:9101, h2:9102"]
        )
        assert args.engine == "socket"
        assert _parse_hosts(args.hosts) == ("h1:9101", "h2:9102")

    def test_hosts_default_to_auto_spawn(self):
        args = build_parser().parse_args(["run", "E3", "--engine", "socket"])
        assert args.hosts is None
        assert _parse_hosts(args.hosts) is None

    def test_empty_hosts_rejected(self):
        with pytest.raises(ReproError):
            _parse_hosts(" , ")

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

    def test_hosts_with_a_non_socket_engine_fails_loudly(self, capsys):
        # Silently sweeping the local box while the user named a fleet would
        # be the worst outcome, so this is an error, not a note.
        assert (
            main(["run", "E3", "--engine", "pooled", "--hosts", "h1:9101"]) == 2
        )
        assert "--hosts applies only" in capsys.readouterr().err

    def test_hosts_outside_the_e3_sweep_fails_loudly(self, capsys):
        # Only E3's engine sweep consumes hosts; every other experiment
        # would silently run on the local box.
        assert (
            main(["run", "E1", "--engine", "socket", "--hosts", "h1:9101"]) == 2
        )
        assert "--hosts applies only" in capsys.readouterr().err

    def test_main_runs_the_multiproc_sweep(self, capsys):
        assert (
            main(
                [
                    "run",
                    "E3",
                    "--engine",
                    "multiproc",
                    "--shards",
                    "2",
                    "--sizes",
                    "7",
                    "--shard-records",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "sync vs multiproc" in out
        assert "multiproc wall s" in out
        assert "cross-shard" in out
