"""Where a pool's workers come from: one preloaded fork server per coordinator.

Host-independent bounds on pool bring-up, read off ``/proc``: workers are
forked from a server that is reused from pool to pool, the server really has
the worker's modules loaded (a preload that failed would be silent and merely
slow), and nothing outlives a coordinator that forgot to ``close()``.

This module imports nothing of ``repro`` at the top: a child process imports
it to find :func:`_exit_with_preload_status`, and what that probe reports is
what the child had loaded *before* — which must be the fork server's doing.
Run as a script it is the coordinator of the subprocess tests below:
``python test_pool_bringup.py <src> probe|abandon``.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: Whether a pool's parentage exists and can be read (test_pool.py asks too).
FORK_SERVER_VISIBLE = (
    os.path.exists("/proc/self/status")
    and "forkserver" in multiprocessing.get_all_start_methods()
)

pytestmark = pytest.mark.skipif(
    not FORK_SERVER_VISIBLE, reason="needs /proc and the forkserver start method"
)


def _status(pid: int, field: str) -> str | None:
    """First word of ``field`` in ``/proc/<pid>/status``; None for no process."""
    try:
        lines = Path("/proc", str(pid), "status").read_text().splitlines()
    except OSError:
        return None
    return next(line.split()[1] for line in lines if line.startswith(field + ":"))


def parent_of(pid: int) -> int:
    return int(_status(pid, "PPid"))


def _gone(pid: int) -> bool:
    """No such process, or only its unreaped remains."""
    return _status(pid, "State") in (None, "Z")


def _pooled_session():
    from repro.api import ScenarioSpec, Session
    from repro.workloads.topologies import tree_topology

    spec = ScenarioSpec.from_topology(
        tree_topology(1, 2), records_per_node=2, seed=0
    ).with_(transport="pooled", shards=2)
    return Session.from_spec(spec)


def _exit_with_preload_status() -> None:
    """Target of the probe process: 0 if the server had ``repro`` loaded."""
    sys.exit(0 if "repro.core.update" in sys.modules else 3)


def _probe_exit_code() -> int:
    """Start the probe from the context the pools use; return its exit code."""
    from repro.sharding.pool import _worker_context

    probe = _worker_context().Process(target=_exit_with_preload_status)
    probe.start()
    probe.join(timeout=60.0)
    assert not probe.is_alive()
    return probe.exitcode


def _run_as_coordinator(mode: str, **kwargs) -> subprocess.CompletedProcess:
    """This file as a script whose only way to ``repro`` is ``sys.path``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, __file__, str(SRC), mode],
        env=env,
        timeout=120,
        **kwargs,
    )


def test_two_pools_are_forked_from_one_server_that_is_not_the_coordinator():
    workers, parents = [], set()
    for _ in range(2):
        with _pooled_session() as session:
            session.run("update")
            pids = session.engine.pool.worker_pids
            workers.extend(pids)
            parents.update(parent_of(pid) for pid in pids)
    assert len(set(workers)) == 4
    assert len(parents) == 1
    assert os.getpid() not in parents


def test_workers_start_with_the_package_already_imported():
    assert _probe_exit_code() == 0


def test_the_preload_takes_without_pythonpath():
    # CPython 3.11's fork server ignores the sys.path it is sent: without
    # PYTHONPATH its preload fails silently and every worker re-imports.
    assert _run_as_coordinator("probe").returncode == 0


def test_a_coordinator_that_never_closed_leaves_no_process_behind():
    finished = _run_as_coordinator("abandon", stdout=subprocess.PIPE, text=True)
    assert finished.returncode == 0, finished.stdout
    left = json.loads(finished.stdout.strip().splitlines()[-1])
    assert len(left["workers"]) == 2 and left["server"] != left["coordinator"]
    deadline = time.monotonic() + 10.0
    leftovers = [*left["workers"], left["server"]]
    while leftovers and time.monotonic() < deadline:
        leftovers = [pid for pid in leftovers if not _gone(pid)]
        time.sleep(0.05)
    assert not leftovers


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    if sys.argv[2] == "probe":
        sys.exit(_probe_exit_code())
    abandoned = _pooled_session()  # module-level: alive until the interpreter exits
    abandoned.run("update")
    pids = abandoned.engine.pool.worker_pids
    (server,) = {parent_of(pid) for pid in pids}
    print(json.dumps({"coordinator": os.getpid(), "workers": pids, "server": server}))
