"""The pool's quiescence barrier, driven by a script instead of processes.

Workers report their cumulative counters unasked whenever they run out of
work; the coordinator pings once every latest report is idle and balanced,
and certifies only when every ping reply equals the report it confirms.
Here the results queue and the channels are scripted, so each test fixes the
exact order in which reports and replies reach the coordinator — including
orders a real run produces only rarely, or only through a bug.
"""

import queue
from collections import deque
from types import SimpleNamespace

import pytest

from repro.errors import NetworkError
from repro.sharding.planner import ShardPlan
from repro.sharding.pool import ShardPool


def status(sent, received, delivered, idle=True):
    """A worker's counters: cross-shard sends per target shard, receives,
    local deliveries, and whether its local queue was empty."""
    return {
        "idle": idle,
        "sent": tuple(sent),
        "received": received,
        "delivered": delivered,
        "clock": float(delivered),
    }


def report(shard, counters):
    """An unsolicited idle report, as a worker sends it before blocking."""
    return ("status", shard, counters, None)


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
    """One shard's channel; its n-th ping enqueues the n-th scripted answer.

    An answer is a list of what the coordinator reads next from this shard,
    in order: counters are the reply (tagged with the ping's generation),
    tuples are queued as they are.
    """

    def __init__(self, shard, results, answers):
        self.shard = shard
        self.results = results
        self.answers = deque(answers)
        self.pings = []
        self.alive = True
        self.reason = "killed by the script"

    def put(self, command):
        if command[0] != "ping":
            return
        self.pings.append(command[1])
        if self.alive:
            for entry in self.answers.popleft():
                if isinstance(entry, dict):
                    entry = ("status", self.shard, entry, command[1])
                self.results.put(entry)

    def kill(self):
        self.alive = False

    def close(self):
        pass


class ScriptedPool(ShardPool):
    """A pool over scripted channels: ``answers[shard]`` scripts its pings."""

    def __init__(self, answers, *, queued=(), max_messages=1_000):
        self._script = answers
        shards = len(answers)
        plan = ShardPlan(shards, {f"n{shard}": shard for shard in range(shards)})
        worlds = [SimpleNamespace(max_messages=max_messages)] * shards
        super().__init__(plan, worlds)
        for item in queued:
            self._results.put(item)

    def _open(self, worlds):
        self._results = ScriptedResults()
        self._channels = [
            ScriptedChannel(shard, self._results, answers)
            for shard, answers in enumerate(self._script)
        ]
        for shard in range(len(worlds)):
            self._results.put(("ready", shard))

    def pings(self):
        return [channel.pings for channel in self._channels]


def test_one_wave_confirms_settled_reports():
    a, b = status([0, 1], 0, 3), status([0, 0], 1, 2)
    pool = ScriptedPool([[[a]], [[b]]], queued=[report(0, a), report(1, b)])
    assert pool._await_quiescence() == (1, 2)
    assert pool.pings() == [[1], [1]]


def test_unbalanced_reports_send_no_wave_until_the_receive_is_reported():
    sender = status([0, 1], 0, 3)
    early, late = status([0, 0], 0, 0), status([0, 0], 1, 2)
    pool = ScriptedPool(
        [[[sender]], [[late]]],
        queued=[report(1, early), report(0, sender), report(1, late)],
    )
    assert pool._await_quiescence() == (1, 3)


def test_compensating_sends_are_not_certified_before_a_wave_matches():
    # Shard 2's message to shard 1 is still in flight.  Shard 1's receive
    # count already holds one message — from shard 0, which sent it after
    # its own report.  The latest reports therefore balance for every shard.
    # Only the confirming wave, where shard 0 answers with its new send
    # count, shows that traffic moved.
    reported = [
        status([0, 0, 0], 0, 1),
        status([0, 0, 0], 1, 1),
        status([0, 1, 0], 0, 1),
    ]
    moved = status([0, 1, 0], 0, 2)
    done = status([0, 0, 0], 2, 3)
    queued = [report(shard, counters) for shard, counters in enumerate(reported)]
    pool = ScriptedPool(
        [
            [[moved], [moved]],
            [[reported[1], report(1, done)], [done]],
            [[reported[2]], [reported[2]]],
        ],
        queued=queued,
    )
    assert pool._settled(dict(enumerate(reported)))  # a report-only check passes
    assert pool._await_quiescence() == (2, 4)
    assert pool.pings() == [[1, 2], [1, 2], [1, 2]]


def test_replies_to_an_earlier_wave_are_ignored():
    a = status([0, 0], 0, 1)
    busy, settled = status([0, 0], 0, 2, idle=False), status([0, 0], 0, 3)
    busy_again, final = status([0, 0], 0, 4, idle=False), status([0, 0], 0, 5)
    pool = ScriptedPool(
        [
            [[a], [a], [a]],
            [
                # Wave 1 finds shard 1 busy; it reports once it drains.
                [busy, report(1, settled)],
                # Wave 2: a late copy of a wave-1 reply, equal to the report
                # under confirmation, arrives before the real (busy) answer.
                [("status", 1, settled, 1), busy_again, report(1, final)],
                [final],
            ],
        ],
        queued=[report(0, a), report(1, a)],
    )
    assert pool._await_quiescence() == (3, 4)


def test_a_worker_that_dies_after_its_report_fails_the_wave():
    a, b = status([0, 0], 0, 1), status([0, 0], 0, 1)
    pool = ScriptedPool([[[a]], [[b]]], queued=[report(0, a), report(1, b)])
    pool.kill_worker(1)
    with pytest.raises(NetworkError, match="shard 1 worker died"):
        pool._await_quiescence()
    assert pool.pings() == [[1], [1]]  # the wave went out and never returned


def test_the_message_bound_trips_on_reports_alone():
    pool = ScriptedPool(
        [[], []],
        queued=[report(0, status([0, 1], 0, 6)), report(1, status([0, 0], 0, 5))],
        max_messages=10,
    )
    with pytest.raises(NetworkError, match="exceeded 10 deliveries"):
        pool._await_quiescence()
    assert pool.pings() == [[], []]


def test_a_worker_error_fails_the_barrier():
    pool = ScriptedPool([[], []], queued=[("error", 1, "Traceback: boom")])
    with pytest.raises(NetworkError, match="shard 1 worker failed"):
        pool._await_quiescence()


def test_no_progress_for_the_stall_timeout_fails(monkeypatch):
    monkeypatch.setattr("repro.sharding.pool._WORKER_TIMEOUT", 0.05)
    pool = ScriptedPool([[], []], queued=[report(0, status([0, 1], 0, 1))])
    with pytest.raises(NetworkError, match="stalled"):
        pool._await_quiescence()
