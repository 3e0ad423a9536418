"""Command-line entry point: run the paper's experiments from a terminal.

``python -m repro list`` shows the available experiments;
``python -m repro run E4 --records 30`` regenerates one of them and prints
the same table the corresponding module's ``main()`` produces (E9 compares
the paper's update with the three reference strategies of
:mod:`repro.api.strategies`).  The CLI is a thin veneer
over :mod:`repro.experiments`, so scripted runs (benchmarks, CI, notebooks)
and interactive runs share exactly the same code paths.

``python -m repro lint scenario.json`` statically analyzes scenario files
(termination, safety, schema consistency — the checks of
:mod:`repro.analysis`, codes in ``docs/analysis.md``) without running
anything; ``Session.from_spec`` runs the same analyzer before it opens a
session.

``python -m repro serve --bind 127.0.0.1:8750 --tenants scenarios/`` boots
the long-running multi-tenant HTTP/WebSocket front-end of
:mod:`repro.serve` (endpoint reference in ``docs/serving.md``); it simply
forwards to ``python -m repro.serve``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable

from repro.api.engine import transport_names
from repro.errors import ReproError
from repro.experiments import (
    baseline_comparison,
    complexity_growth,
    data_distribution,
    depth_linearity,
    dynamic_changes,
    faults as faults_experiment,
    message_accounting,
    paper_example,
    scalability,
    separation,
    serving,
    trace_example,
)


def _parse_sizes(text: str) -> tuple[int, ...]:
    """Parse the --sizes flag ("127,511") into node counts."""
    try:
        sizes = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ReproError(f"--sizes expects comma-separated integers, got {text!r}")
    if not sizes:
        raise ReproError("--sizes needs at least one node count")
    return sizes


def _parse_hosts(text: str | None) -> tuple[str, ...] | None:
    """Parse the --hosts flag ("h1:9101,h2:9101") into addresses (or None)."""
    if text is None:
        return None
    hosts = tuple(part.strip() for part in text.split(",") if part.strip())
    if not hosts:
        raise ReproError("--hosts needs at least one HOST:PORT address")
    return hosts


def _load_fault_plan(path: str | None):
    """Load the --faults plan file, or None when the flag was not given."""
    if path is None:
        return None
    from repro.faults import FaultPlan

    return FaultPlan.load_json(path)


#: Experiment id → (description, callable taking the parsed args).
_EXPERIMENTS: dict[str, tuple[str, Callable[[argparse.Namespace], str]]] = {
    "E1": (
        "dependency paths of the Section 2 example",
        lambda args: paper_example.main(),
    ),
    "E2": (
        "Figure 1 execution trace",
        lambda args: trace_example.main(limit=args.limit),
    ),
    "E3": (
        "scalability sweep over trees, layered DAGs and cliques",
        lambda args: (
            scalability.shard_main(
                records_per_node=getattr(args, "shard_records", 3),
                shards=getattr(args, "shards", 4),
                sizes=_parse_sizes(getattr(args, "sizes", "127,511")),
                engine=args.engine,
                repeats=getattr(args, "repeats", 3),
                hosts=_parse_hosts(getattr(args, "hosts", None)),
                trace_path=getattr(args, "trace", None),
                faults=_load_fault_plan(getattr(args, "faults", None)),
            )
            if getattr(args, "engine", "sync") in transport_names(partitioned=True)
            else scalability.main(records_per_node=args.records)
        ),
    ),
    "E4": (
        "execution time vs depth (linearity)",
        lambda args: depth_linearity.main(records_per_node=args.records),
    ),
    "E5": (
        "data distributions: disjoint vs 50% overlap",
        lambda args: data_distribution.main(records_per_node=args.records),
    ),
    "E6": (
        "per-node statistics / duplicate queries on a clique",
        lambda args: message_accounting.main(records_per_node=args.records),
    ),
    "E7": (
        "update interleaved with addLink/deleteLink (Theorem 2)",
        lambda args: dynamic_changes.main(),
    ),
    "E8": (
        "separated component under churn (Theorem 3)",
        lambda args: separation.main(),
    ),
    "E9": (
        "materialised update vs query-time vs centralized",
        lambda args: baseline_comparison.main(),
    ),
    "E10": (
        "worst-case growth with clique size and change length",
        lambda args: complexity_growth.main(),
    ),
    "E11": (
        "convergence under injected faults (churn, loss, partitions)",
        lambda args: faults_experiment.main(
            records_per_node=getattr(args, "shard_records", 3),
            plan_path=getattr(args, "faults", None),
        ),
    ),
    "E12": (
        "multi-tenant serving under closed-loop HTTP load",
        lambda args: serving.main(
            records_per_node=getattr(args, "shard_records", 3),
            clients=getattr(args, "clients", 4),
            operations=getattr(args, "operations", 4),
        ),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed separately so tests can exercise it)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction experiments for the EDBT P2P&DB 2004 paper.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the available experiments")

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument(
        "experiment",
        choices=sorted(_EXPERIMENTS, key=lambda e: int(e[1:])),
        help="experiment id from DESIGN.md",
    )
    run_parser.add_argument(
        "--records",
        type=int,
        default=30,
        help="records per node for the workload-driven experiments (default 30)",
    )
    run_parser.add_argument(
        "--limit",
        type=int,
        default=40,
        help="number of trace rows to print for E2 (default 40)",
    )
    run_parser.add_argument(
        "--engine",
        choices=("sync", *transport_names(partitioned=True)),
        default="sync",
        help=(
            "execution engine for E3: 'multiproc' runs the large "
            "sync-vs-multiproc sweep (one process per shard) instead of the "
            "paper-sized one; 'pooled' adds the repeat-run comparison against "
            "a persistent worker pool; 'socket' compares against the TCP "
            "shard-host engine (see --hosts) (default sync)"
        ),
    )
    run_parser.add_argument(
        "--hosts",
        default=None,
        help=(
            "comma-separated HOST:PORT shard-host addresses for --engine "
            "socket (each a running 'python -m repro.shardhost'); omitted, "
            "localhost hosts are auto-spawned"
        ),
    )
    run_parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help=(
            "update runs per engine for --engine pooled: the cold multiproc "
            "engine pays spawn/ship on each, the warm pool only on the first "
            "(default 3)"
        ),
    )
    run_parser.add_argument(
        "--shards",
        type=int,
        default=4,
        help="shard count for --engine multiproc/pooled/socket (default 4)",
    )
    run_parser.add_argument(
        "--sizes",
        default="127,511",
        help=(
            "comma-separated node counts for --engine multiproc/pooled/socket "
            "(default 127,511)"
        ),
    )
    run_parser.add_argument(
        "--shard-records",
        dest="shard_records",
        type=int,
        default=3,
        help="records per node for the engine sweep (default 3; the sweep "
        "runs hundreds of nodes, so it stays small independently of --records)",
    )

    run_parser.add_argument(
        "--clients",
        type=int,
        default=4,
        help="closed-loop clients per tenant for the E12 serving sweep (default 4)",
    )
    run_parser.add_argument(
        "--operations",
        type=int,
        default=4,
        help="update+query pairs per E12 client (default 4)",
    )
    run_parser.add_argument(
        "--faults",
        default=None,
        metavar="PATH",
        help=(
            "a fault-plan JSON file (the format of FaultPlan.dump_json) to "
            "inject during the run; valid with E11 (replayed against the "
            "multiproc, pooled and socket engines) and with the E3 engine "
            "sweep under --engine multiproc/pooled/socket"
        ),
    )
    run_parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help=(
            "write a Chrome trace-event JSON timeline of the E3 engine sweep "
            "to PATH (open it at https://ui.perfetto.dev); only valid with "
            "E3 and --engine multiproc/pooled/socket"
        ),
    )
    run_parser.add_argument(
        "--verbose",
        action="store_true",
        help="enable debug logging on the repro.obs logger hierarchy",
    )

    run_all = subparsers.add_parser("run-all", help="run every experiment in order")
    run_all.add_argument("--records", type=int, default=20)
    run_all.add_argument("--limit", type=int, default=20)

    lint_parser = subparsers.add_parser(
        "lint",
        help="statically analyze scenario JSON files without running them",
    )
    lint_parser.add_argument(
        "scenarios",
        nargs="+",
        help="scenario spec files (the JSON format of ScenarioSpec.dump_json)",
    )
    lint_parser.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as failures (errors always fail)",
    )
    lint_parser.add_argument(
        "--cut-threshold",
        type=float,
        default=0.5,
        help=(
            "cross-shard cut fraction above which the P001 advisory fires "
            "for sharded specs (default 0.5)"
        ),
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help=(
            "boot the multi-tenant HTTP/WebSocket front-end "
            "(same as 'python -m repro.serve'; see docs/serving.md)"
        ),
    )
    serve_parser.add_argument(
        "serve_args",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to repro.serve (try: serve --help)",
    )

    trace_parser = subparsers.add_parser(
        "trace",
        help="inspect trace files written by 'run ... --trace'",
    )
    trace_parser.add_argument(
        "action",
        choices=("summarize", "validate"),
        help=(
            "'summarize' prints the per-phase wall-clock table; 'validate' "
            "schema-checks the file and exits non-zero on problems"
        ),
    )
    trace_parser.add_argument(
        "path", help="a Chrome trace-event JSON file (from 'run ... --trace')"
    )
    return parser


def lint_scenarios(
    scenarios: list[str], *, strict: bool = False, cut_threshold: float = 0.5
) -> int:
    """Analyze scenario files; returns the process exit code.

    Exit 0 when every file is free of errors (and of warnings under
    ``--strict``); exit 1 otherwise.  Unreadable or unparsable files count
    as failures, not crashes, so CI can lint a whole directory in one call.
    """
    from repro.analysis import analyze

    failed = False
    for scenario in scenarios:
        try:
            report = analyze(scenario, cut_threshold=cut_threshold)
        except (OSError, ReproError) as error:
            print(f"{scenario}: error: {error}", file=sys.stderr)
            failed = True
            continue
        print(f"{scenario}: {report.render()}")
        if not report.ok or (strict and report.warnings):
            failed = True
    return 1 if failed else 0


def inspect_trace(action: str, path: str) -> int:
    """Validate or summarize a Chrome trace file; returns the exit code."""
    from repro.obs.export import (
        chrome_trace_summary,
        format_trace_summary,
        validate_chrome_trace,
    )

    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        print(f"{path}: error: {error}", file=sys.stderr)
        return 1
    problems = validate_chrome_trace(document)
    if problems:
        for problem in problems:
            print(f"{path}: {problem}", file=sys.stderr)
        return 1
    if action == "validate":
        events = sum(
            1 for event in document["traceEvents"] if event.get("ph") == "X"
        )
        print(f"{path}: valid ({events} span event(s))")
        return 0
    print(format_trace_summary(chrome_trace_summary(document)))
    return 0


def list_experiments() -> str:
    """A one-line-per-experiment listing."""
    lines = [
        f"{exp_id:4s} {description}"
        for exp_id, (description, _run) in sorted(
            _EXPERIMENTS.items(), key=lambda item: int(item[0][1:])
        )
    ]
    text = "\n".join(lines)
    print(text)
    return text


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "serve":
        # Forward everything after "serve" verbatim: argparse.REMAINDER
        # refuses option-like tokens (``--bind``) on some Python versions,
        # so the sub-CLI gets dispatched before the main parser runs.
        from repro.serve.__main__ import main as serve_main

        return serve_main(arguments[1:])
    parser = build_parser()
    args = parser.parse_args(arguments)

    from repro.obs import configure_logging

    configure_logging(verbose=getattr(args, "verbose", False))

    if args.command == "list":
        list_experiments()
        return 0
    if args.command == "serve":  # pragma: no cover - dispatched above
        from repro.serve.__main__ import main as serve_main

        return serve_main(args.serve_args)
    if args.command == "trace":
        return inspect_trace(args.action, args.path)
    if args.command == "lint":
        return lint_scenarios(
            args.scenarios,
            strict=args.strict,
            cut_threshold=args.cut_threshold,
        )
    if args.command == "run":
        if args.engine != "sync" and args.experiment != "E3":
            print(
                f"note: --engine {args.engine} selects the E3 engine sweep; "
                f"{args.experiment} runs its usual configuration"
            )
        if getattr(args, "hosts", None) and (
            args.engine != "socket" or args.experiment != "E3"
        ):
            # Silently running on the local box while the user named a fleet
            # would be the worst outcome; fail loudly instead.  Only the E3
            # engine sweep consumes hosts.
            print(
                "error: --hosts applies only to the E3 socket sweep "
                f"(run E3 --engine socket); got {args.experiment} with "
                f"--engine {args.engine}",
                file=sys.stderr,
            )
            return 2
        if getattr(args, "faults", None) and not (
            args.experiment == "E11"
            or (
                args.experiment == "E3"
                and args.engine in transport_names(partitioned=True)
            )
        ):
            # Same loud-failure policy as --hosts: silently running
            # fault-free while the user named a fault plan would be the
            # worst outcome.
            print(
                "error: --faults applies only to E11 or the E3 engine sweep "
                f"(run E3 --engine {'/'.join(transport_names(partitioned=True))}); "
                f"got {args.experiment} with --engine {args.engine}",
                file=sys.stderr,
            )
            return 2
        if getattr(args, "trace", None) and (
            args.experiment != "E3"
            or args.engine not in transport_names(partitioned=True)
        ):
            # Same loud-failure policy as --hosts: only the E3 engine sweep
            # is instrumented to write a trace file.
            print(
                "error: --trace applies only to the E3 engine sweep "
                f"(run E3 --engine {'/'.join(transport_names(partitioned=True))}); "
                f"got {args.experiment} with --engine {args.engine}",
                file=sys.stderr,
            )
            return 2
        _description, run = _EXPERIMENTS[args.experiment]
        try:
            run(args)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        return 0
    if args.command == "run-all":
        for exp_id in sorted(_EXPERIMENTS, key=lambda e: int(e[1:])):
            print(f"\n===== {exp_id} =====")
            _description, run = _EXPERIMENTS[exp_id]
            try:
                run(args)
            except ReproError as error:
                print(f"error in {exp_id}: {error}", file=sys.stderr)
                return 1
        return 0
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
