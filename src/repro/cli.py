"""Command-line entry point: run the paper's experiments from a terminal.

``python -m repro list`` shows the available experiments;
``python -m repro run E4 --records 30`` regenerates one of them and prints
the same table the corresponding module's ``main()`` produces (E9 compares
the paper's update with the three baselines of :mod:`repro.baselines`).
The CLI is a thin veneer
over :mod:`repro.experiments`, so scripted runs (benchmarks, CI, notebooks)
and interactive runs share exactly the same code paths.  ``python -m repro
run E11 --faults plan.json --trace out.json`` replays a fault plan against
every partitioned engine and writes one Chrome trace of it, which
``python -m repro trace validate|summarize out.json`` inspects.  Wall-clock
comparisons of the engines live in ``benchmarks/perf``, not in the CLI.

:data:`EXPERIMENTS` is the one table behind ``list``, ``run`` and
``run-all``: each experiment's ``main`` and the ``run`` flags it reads.
``run`` exits 2 on ``--limit``, ``--clients``, ``--operations``,
``--faults`` or ``--trace`` when the experiment does not read it;
``--records`` and ``--shard-records`` are accepted by every experiment.
``run`` exits 1 when the experiment raises
:class:`~repro.errors.ReproError` — as every experiment does, after
printing, when a row of its table is not ``ok``.

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


_RECORDS = {"records": "records_per_node"}

#: Experiment id → (description, its ``main``, the ``run`` flags it reads →
#: the ``main`` parameter each one sets).  ``run`` refuses the other flags.
EXPERIMENTS: dict[str, tuple[str, Callable[..., str], dict[str, str]]] = {
    "E1": ("dependency paths of the Section 2 example", paper_example.main, {}),
    "E2": ("Figure 1 execution trace", trace_example.main, {"limit": "limit"}),
    "E3": (
        "scalability sweep over trees, layered DAGs and cliques",
        scalability.main,
        _RECORDS,
    ),
    "E4": ("execution time vs depth (linearity)", depth_linearity.main, _RECORDS),
    "E5": (
        "data distributions: disjoint vs 50% overlap",
        data_distribution.main,
        _RECORDS,
    ),
    "E6": (
        "per-node statistics / duplicate queries on a clique",
        message_accounting.main,
        _RECORDS,
    ),
    "E7": (
        "update interleaved with addLink/deleteLink (Theorem 2)",
        dynamic_changes.main,
        {},
    ),
    "E8": ("separated component under churn (Theorem 3)", separation.main, {}),
    "E9": (
        "materialised update vs query-time vs centralized",
        baseline_comparison.main,
        {},
    ),
    "E10": (
        "worst-case growth with clique size and change length",
        complexity_growth.main,
        {},
    ),
    "E11": (
        "convergence under injected faults (churn, loss, partitions)",
        faults_experiment.main,
        {
            "shard_records": "records_per_node",
            "faults": "plan_path",
            "trace": "trace_path",
        },
    ),
    "E12": (
        "multi-tenant serving under closed-loop HTTP load",
        serving.main,
        {
            "shard_records": "records_per_node",
            "clients": "clients",
            "operations": "operations",
        },
    ),
}

#: The ``run`` flags without a default.  ``run`` refuses each of them unless
#: the experiment reads it; ``--records`` and ``--shard-records`` have
#: defaults, and every experiment accepts them.
_OPTIONAL_FLAGS = ("limit", "clients", "operations", "faults", "trace")


def _run_experiment(exp_id: str, args: argparse.Namespace) -> str:
    """Call an experiment's ``main`` with the flags it reads that are set."""
    _about, run, reads = EXPERIMENTS[exp_id]
    return run(
        **{
            parameter: getattr(args, flag)
            for flag, parameter in reads.items()
            if getattr(args, flag, None) is not None
        }
    )


def _unread_flag(exp_id: str, args: argparse.Namespace) -> str | None:
    """The error for a set flag the experiment does not read, if any.

    Silently running fault-free, untraced or at another size than the one
    the user named would be the worst outcome; ``run`` fails loudly instead.
    """
    for flag in _OPTIONAL_FLAGS:
        if getattr(args, flag) is None or flag in EXPERIMENTS[exp_id][2]:
            continue
        readers = ", ".join(
            other
            for other, (_about, _run, reads) in EXPERIMENTS.items()
            if flag in reads
        )
        return f"--{flag} is not read by {exp_id}: its settings apply only to {readers}"
    return None


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
        choices=list(EXPERIMENTS),
        help="experiment id (see 'python -m repro list')",
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
        default=None,
        help="number of trace rows to print for E2 (default 40)",
    )
    run_parser.add_argument(
        "--shard-records",
        dest="shard_records",
        type=int,
        default=3,
        help="records per node for E11 and E12 (default 3)",
    )

    run_parser.add_argument(
        "--clients",
        type=int,
        default=None,
        help="closed-loop clients per tenant for the E12 serving sweep (default 4)",
    )
    run_parser.add_argument(
        "--operations",
        type=int,
        default=None,
        help="update+query pairs per E12 client (default 4)",
    )
    run_parser.add_argument(
        "--faults",
        default=None,
        metavar="PATH",
        help=(
            "E11 only: a fault-plan JSON file (the format of "
            "FaultPlan.dump_json) replayed against the pooled and socket "
            "engines instead of the built-in matrix"
        ),
    )
    run_parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help=(
            "E11 only: write a Chrome trace-event JSON timeline of every "
            "faulted session to PATH (open it at https://ui.perfetto.dev)"
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
    text = "\n".join(
        f"{exp_id:4s} {about}" for exp_id, (about, _run, _reads) in EXPERIMENTS.items()
    )
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
    if args.command == "trace":
        return inspect_trace(args.action, args.path)
    if args.command == "lint":
        return lint_scenarios(
            args.scenarios,
            strict=args.strict,
            cut_threshold=args.cut_threshold,
        )
    if args.command == "run":
        refusal = _unread_flag(args.experiment, args)
        if refusal is not None:
            print(f"error: {refusal}", file=sys.stderr)
            return 2
        try:
            _run_experiment(args.experiment, args)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        return 0
    if args.command == "run-all":
        for exp_id in EXPERIMENTS:
            print(f"\n===== {exp_id} =====")
            try:
                _run_experiment(exp_id, args)
            except ReproError as error:
                print(f"error in {exp_id}: {error}", file=sys.stderr)
                return 1
        return 0
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
