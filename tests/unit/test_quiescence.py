"""The pool's quiescence barrier, driven by a script instead of processes.

Workers report unasked whenever they run out of work: the id of the latest
run they started, their cumulative cross-shard ledger and a payload.  The
coordinator certifies once every shard's latest report belongs to the
current run and the ledgers balance.  Here the results queue and the
channels are scripted, so each test fixes the exact order in which reports
reach the coordinator — including orders a real run produces only rarely.
"""

import queue
from collections import deque
from types import SimpleNamespace

import pytest

from repro.coordination.changeset import Change
from repro.errors import NetworkError
from repro.sharding.planner import ShardPlan
from repro.sharding.pool import ShardPool


def report(shard, run, sent, received, delivered=0):
    """An idle report: run id, ledger (cross-shard sends per target shard,
    receives), and a payload naming its shard and its deliveries."""
    payload = {"shard": shard, "run": run, "delivered": delivered}
    return ("report", shard, run, (tuple(sent), received), payload)


class ScriptedResults:
    """A results queue that never blocks: ``get`` on an empty one is Empty."""

    def __init__(self):
        self.items = deque()

    def put(self, item):
        self.items.append(item)

    def get(self, timeout=None):
        if not self.items:
            raise queue.Empty
        return self.items.popleft()


class ScriptedChannel:
    """One shard's channel; its n-th ``start`` enqueues the n-th scripted
    list of what the coordinator reads next."""

    def __init__(self, results, answers):
        self.results = results
        self.answers = deque(answers)
        self.starts = []
        self.alive = True
        self.reason = "killed by the script"

    def put(self, command):
        if command[0] != "start":
            return
        self.starts.append(command)
        if self.alive and self.answers:
            for entry in self.answers.popleft():
                self.results.put(entry)

    def kill(self):
        self.alive = False

    def close(self):
        pass


class ScriptedPool(ShardPool):
    """A pool over scripted channels, in the middle of run ``run``:
    ``answers[shard]`` scripts what each later ``start`` brings back."""

    def __init__(self, answers, *, queued=(), run=1, max_messages=1_000):
        self._script = answers
        shards = len(answers)
        plan = ShardPlan(shards, {f"n{shard}": shard for shard in range(shards)})
        worlds = [SimpleNamespace(max_messages=max_messages)] * shards
        super().__init__(plan, worlds)
        self._run = run
        for item in queued:
            self._results.put(item)

    def _open(self, worlds):
        self._results = ScriptedResults()
        self._channels = [
            ScriptedChannel(self._results, answers) for answers in self._script
        ]
        for shard in range(len(worlds)):
            self._results.put(("ready", shard))


def runs_of(payloads):
    return [(payload["shard"], payload["run"]) for payload in payloads]


def test_balanced_reports_of_this_run_certify():
    pool = ScriptedPool(
        [[], []],
        queued=[report(0, 1, [0, 1], 0, 3), report(1, 1, [0, 0], 1, 2)],
    )
    assert runs_of(pool._await_quiescence()) == [(0, 1), (1, 1)]


def test_unbalanced_reports_wait_for_the_receive_to_be_reported():
    pool = ScriptedPool(
        [[], []],
        queued=[
            report(1, 1, [0, 0], 0),
            report(0, 1, [0, 1], 0, 3),  # shard 1 has not reported the receive
            report(1, 1, [0, 0], 1, 2),
        ],
    )
    assert len(pool._await_quiescence()) == 3


def test_a_report_of_the_previous_run_balances_the_set_but_is_not_counted():
    # Shard 1's latest report is from run 1: it has not taken run 2's start.
    # The ledgers balance all the same — they are cumulative, and nothing of
    # run 2 crossed the cut yet — but shard 1 may still have run 2's work
    # ahead of it.  Certification waits for its run-2 report.
    pool = ScriptedPool(
        [[], []],
        run=2,
        queued=[
            report(0, 2, [0, 1], 4, 2),
            report(1, 1, [4, 0], 1, 0),
            report(1, 2, [5, 0], 1, 6),
            report(0, 2, [0, 1], 5, 1),
        ],
    )
    assert runs_of(pool._await_quiescence()) == [(0, 2), (1, 1), (1, 2), (0, 2)]


def test_a_pre_start_reports_payload_is_still_merged():
    # Shard 1 ran run 2's work before its start (its report is tagged with
    # run 1): that payload is this run's, and run_phase returns it.
    pool = ScriptedPool(
        [
            [[report(0, 2, [0, 1], 0, 1), report(0, 2, [0, 1], 1, 2)]],
            [[report(1, 1, [0, 0], 1, 3), report(1, 2, [1, 0], 1, 1)]],
        ],
    )
    payloads = pool.run_phase("update", None)
    assert runs_of(payloads) == [(0, 2), (0, 2), (1, 1), (1, 2)]
    assert sum(payload["delivered"] for payload in payloads) == 7
    assert [channel.starts[0][1] for channel in pool._channels] == [2, 2]


def test_a_start_carries_its_shards_slice_of_the_change_or_none():
    pool = ScriptedPool(
        [
            [[report(0, 2, [0, 0], 0)]],
            [[report(1, 2, [0, 0], 0)]],
        ],
    )
    change = Change(inserts={"n1": {"item": (("a",),)}})
    pool.run_phase("update", None, change=change)
    first, second = (channel.starts[0][-1] for channel in pool._channels)
    assert first is None
    assert second.inserts == change.inserts


def test_a_worker_that_dies_after_its_report_fails_the_barrier():
    pool = ScriptedPool(
        [[], []],
        queued=[report(0, 1, [0, 1], 0, 1), report(1, 1, [0, 0], 0, 1)],
    )
    pool.kill_worker(1)
    with pytest.raises(NetworkError, match="shard 1 worker died"):
        pool._await_quiescence()


def test_a_worker_killed_after_the_barrier_fails_the_run():
    pool = ScriptedPool([[[report(0, 2, [0, 0], 0)]], [[report(1, 2, [0, 0], 0)]]])
    pool.injector = SimpleNamespace(
        fire=lambda phase, target: phase == "quiescence" and target.kill_worker(1)
    )
    with pytest.raises(NetworkError, match="shard 1 worker is gone"):
        pool.run_phase("update", None)
    assert pool.closed


def test_the_message_bound_trips_on_reports_alone():
    pool = ScriptedPool(
        [[], []],
        queued=[report(0, 1, [0, 1], 0, 6), report(1, 1, [0, 0], 0, 5)],
        max_messages=10,
    )
    with pytest.raises(NetworkError, match="exceeded 10 deliveries"):
        pool._await_quiescence()


def test_the_message_bound_is_per_run():
    # 6 deliveries per run against a bound of 10: the pool's cumulative
    # count passes the bound on the second run, and no run trips it.
    runs = (2, 3, 4)
    pool = ScriptedPool(
        [
            [[report(0, run, [0, 0], 0, 6)] for run in runs],
            [[report(1, run, [0, 0], 0)] for run in runs],
        ],
        max_messages=10,
    )
    for _run in runs:
        payloads = pool.run_phase("update", None)
        assert sum(payload["delivered"] for payload in payloads) == 6
    assert not pool.closed


def test_a_worker_error_fails_the_barrier():
    pool = ScriptedPool([[], []], queued=[("error", 1, "Traceback: boom")])
    with pytest.raises(NetworkError, match="shard 1 worker failed"):
        pool._await_quiescence()


def test_no_progress_for_the_stall_timeout_fails(monkeypatch):
    monkeypatch.setattr("repro.sharding.pool._WORKER_TIMEOUT", 0.05)
    pool = ScriptedPool([[], []], queued=[report(0, 1, [0, 1], 0, 1)])
    with pytest.raises(NetworkError, match="stalled"):
        pool._await_quiescence()
