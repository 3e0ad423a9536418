"""The repo's layered performance benchmark: one command, five workloads.

::

    python3 benchmarks/perf/run.py                         # all five, untraced
    python3 benchmarks/perf/run.py --workload cold_tree --seed 3 --seconds 10 --trace 0
    python3 benchmarks/perf/run.py --trace 1 --out results.json
    python3 benchmarks/perf/run.py --compare A.json B.json

``--trace 0`` (the default) measures the end-to-end metrics with tracing off;
``--trace 1`` (``--traced``) repeats the same generated inputs with the PR 7
tracer on and the benchmark-side layer timers of ``layers.py`` installed and
reports the per-layer metrics.  Metric names, units and regression bounds
live in ``BENCHMARK.json`` at the repo root — the one place both this script
and the PR driver read them from.  ``README.md`` next to this file has the
metric and workload tables and the interaction map.

Each workload runs in a fresh child interpreter, in a session of its own and
under a hard timeout; when the child has exited (or been killed) every
process left in that session — pool workers, shard hosts, the served
front-end — is killed and waited for, so nothing outlives a run whether it
succeeded or not.  Per workload the last line printed is the driver
contract's JSON object; the exit code is 0 only if every workload was
correct with no failed operation.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parent.parent
#: A workload child that has not finished by then is killed (the driver
#: allows a run 180 s).
CHILD_TIMEOUT_S = 170.0


#: Reported and compared, but outside BENCHMARK.json: the driver wants every
#: gated metric from every workload and never 0, and none of these is both.
EXTRAS = {
    "update_ms_p90": {"unit": "ms", "better": "lower", "bound": 0.25},
    "delete_ms_p50": {"unit": "ms", "better": "lower", "bound": 0.25},
    "query_ms_p50": {"unit": "ms", "better": "lower", "bound": 0.25},
    "query_ms_p90": {"unit": "ms", "better": "lower", "bound": 0.25},
    "failed_share": {"unit": "share", "better": "lower", "bound": 0.0},
}


#: Run by this command, not by the PR driver: the socket engine's insert takes
#: three or four of its 90 ms polling ticks in a mix that drifts from run to
#: run, which no statistic of a run steadies to within a bound.
UNGATED_WORKLOADS = ("warm_socket",)


def load_benchmark() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def workload_names(benchmark: dict) -> list[str]:
    return [entry["name"] for entry in benchmark["workloads"]] + list(UNGATED_WORKLOADS)


# ------------------------------------------------------------ child processes


def _session_members(session_id: int) -> list[int]:
    """Live (non-zombie) processes whose session is ``session_id``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited while we were listing
        state, _ppid, _pgrp, session = stat.rsplit(")", 1)[1].split()[:4]
        if int(session) == session_id and state != "Z":
            members.append(int(entry))
    return members


def _reap_session(session_id: int) -> None:
    """Kill whatever the workload child left behind, and wait until it is gone."""
    deadline = time.monotonic() + 10.0
    while True:
        members = _session_members(session_id)
        if not members or time.monotonic() > deadline:
            return
        for pid in members:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.05)


def run_child(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload in a fresh interpreter; returns its result record."""
    scratch = REPO_ROOT / ".bench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    search_path = [str(REPO_ROOT / "src"), str(PERF_DIR)]
    if os.environ.get("PYTHONPATH"):
        search_path.append(os.environ["PYTHONPATH"])
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(search_path),
        # Same set and dict iteration order run after run: steadier timings.
        PYTHONHASHSEED="0",
        # The socket engine keeps its hosts' stderr in unnamed temp files.
        TMPDIR=str(scratch),
    )
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child",
        "--workload",
        name,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ]
    child = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        start_new_session=True,
    )
    try:
        output, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        raise SystemExit(f"workload {name} exceeded {CHILD_TIMEOUT_S:.0f} s; killed")
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        _reap_session(child.pid)
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run's scratch directory is still in there
    if child.returncode != 0:
        raise SystemExit(f"workload {name} exited with code {child.returncode}")
    return json.loads(output.strip().splitlines()[-1])


def child_main(options: argparse.Namespace) -> int:
    """Body of the child interpreter: run one workload, print its record."""
    from workloads import measure

    record = measure(
        options.workload, options.seed, options.seconds, bool(options.trace)
    )
    print(json.dumps(record))
    return 0


# ------------------------------------------------------------------ reporting


def _commit() -> str:
    try:
        described = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return described.stdout.strip() if described.returncode == 0 else "unknown"


def report(record: dict, declared: list[dict]) -> None:
    """Print every metric by name with its unit, then the contract's JSON line."""
    names = [metric["name"] for metric in declared]
    if set(names) != set(record["metrics"]):
        raise SystemExit(
            f"workload {record['workload']} reported "
            f"{sorted(set(record['metrics']) ^ set(names))} out of line with BENCHMARK.json"
        )
    kind = "per-layer, traced" if record["trace"] else "end-to-end, untraced"
    print(
        f"== {record['workload']}  seed {record['seed']}  "
        f"{record['seconds']:g} s  ({kind})"
    )
    for metric in declared:
        value = record["metrics"][metric["name"]]
        clocked = record["host"]["as_clocked"].get(metric["name"])
        note = f"  (as clocked: {clocked:.6g})" if clocked else ""
        print(f"  {metric['name']:<38} {value:>16.6g} {metric['unit']}{note}")
    for name, value in record["extras"].items():
        print(f"  {name:<38} {value:>16.6g} {EXTRAS[name]['unit']}  (not gated)")
    samples = "  ".join(f"{kind}={count}" for kind, count in record["samples"].items())
    print(f"  samples: {samples}")
    print(f"  host slowdown {record['host']['slowdown']:.4f} (speed probe / reference)")
    print(
        f"  failed_share {record['failed_share']:.6g} "
        f"({record['failed']} of {record['attempted']} operations)  "
        f"correct={record['correct']}"
    )
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    metric["name"]: {
                        "value": record["metrics"][metric["name"]],
                        "unit": metric["unit"],
                    }
                    for metric in declared
                },
            }
        ),
        flush=True,
    )


def append_records(path: Path, records: list[dict]) -> None:
    """Add ``records`` to the trajectory file at ``path`` (created if absent)."""
    document = {"benchmark": "benchmarks/perf", "records": []}
    if path.exists():
        document = json.loads(path.read_text(encoding="utf-8"))
    stamp = {
        "commit": _commit(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
    }
    document["records"].extend({**stamp, **record} for record in records)
    path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")


# -------------------------------------------------------------------- compare


def _spread(values: list[float]) -> float:
    """Inter-quartile range as a share of the median (0 for under 2 values)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    centre = statistics.median(values)
    return (third - first) / abs(centre) if centre else 0.0


def compare(base_path: Path, change_path: Path) -> int:
    """One row per (metric, workload): medians, ratio, bound and a verdict.

    ``regressed``: the change's median is worse than the base's by more than
    the metric's bound.  ``unresolved``: either side's run-to-run spread is
    wider than the bound, so a median inside it proves nothing — unless every
    run of the change reads better than every run of the base.
    """
    benchmark = load_benchmark()

    def untraced(path: Path) -> dict[tuple[str, str], list[float]]:
        values: dict[tuple[str, str], list[float]] = {}
        for record in json.loads(path.read_text(encoding="utf-8"))["records"]:
            if record["trace"]:
                continue
            measured = {
                **record["metrics"],
                **record["extras"],
                "failed_share": record["failed_share"],
            }
            for name, value in measured.items():
                values.setdefault((name, record["workload"]), []).append(value)
        return values

    base, change = untraced(base_path), untraced(change_path)
    declared = benchmark["end_to_end"] + [
        {"name": name, **metric} for name, metric in EXTRAS.items()
    ]
    regressions = 0
    print(
        f"{'metric':<24}{'workload':<13}{'base':>12}{'change':>12}  "
        f"{'change/base':>11}  {'bound':>6}  verdict"
    )
    for metric in declared:
        for workload in workload_names(benchmark):
            key = (metric["name"], workload)
            if key not in base or key not in change:
                continue
            old, new = statistics.median(base[key]), statistics.median(change[key])
            sign = 1 if metric["better"] == "lower" else -1
            # Share of the base's median by which the change is worse; a base
            # of 0 (failed_share) tolerates nothing.
            worse_by = sign * (new - old) / old if old else float(new != old)
            all_better = max(sign * v for v in change[key]) < min(
                sign * v for v in base[key]
            )
            spread = max(_spread(base[key]), _spread(change[key]))
            if spread > metric["bound"] and not all_better:
                verdict = f"unresolved (spread {spread:.3f})"
            elif worse_by > metric["bound"]:
                verdict = "regressed"
                regressions += 1
            else:
                verdict = "ok"
            ratio = f"{new / old:.4f}" if old else "-"
            print(
                f"{metric['name']:<24}{workload:<13}{old:>12.6g}{new:>12.6g}  "
                f"{ratio:>11}  {metric['bound']:>6g}  {verdict}"
            )
    print(
        f"base = {base_path} (n={max(map(len, base.values()), default=0)}), "
        f"change = {change_path} (n={max(map(len, change.values()), default=0)}); "
        f"{regressions} regression(s)"
    )
    return 1 if regressions else 0


# ----------------------------------------------------------------------- main


def parse_arguments(argv: list[str] | None) -> argparse.Namespace:
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        choices=workload_names(benchmark),
        help="run only this workload (default: all five)",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(benchmark["run_seconds"]),
        help="time budget of each workload's measured loop",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=0,
        help="1: traced pass, per-layer metrics (0: end-to-end metrics)",
    )
    parser.add_argument(
        "--traced", action="store_const", const=1, dest="trace", help="same as --trace 1"
    )
    parser.add_argument(
        "--out", type=Path, help="append the result records to this JSON file"
    )
    parser.add_argument(
        "--compare",
        nargs=2,
        type=Path,
        metavar=("BASE.json", "CHANGE.json"),
        help="compare two result files instead of running; exit 1 on a regression",
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    options = parse_arguments(argv)
    if options.child:
        return child_main(options)
    if options.compare:
        return compare(*options.compare)
    if not (REPO_ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no program to measure: {REPO_ROOT / 'src' / 'repro'} is missing")
    benchmark = load_benchmark()
    declared = benchmark["per_layer" if options.trace else "end_to_end"]
    names = [options.workload] if options.workload else workload_names(benchmark)
    records = []
    for name in names:
        record = run_child(name, options.seed, options.seconds, options.trace)
        report(record, declared)
        records.append(record)
    if options.out:
        append_records(options.out, records)
    healthy = all(record["correct"] and not record["failed"] for record in records)
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
