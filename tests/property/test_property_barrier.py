"""The quiescence barrier against a model of K passive-report workers.

Each model worker is a real :class:`~repro.sharding.worker._WorkerTransport`
(local queue, cross-shard sends stamped with the run, the cumulative
ledger) driven by the rules of ``shard_worker_loop``: a ``msg`` stamped with
a run the worker has not started is held until that run's ``start``, and a
report is taken only when the worker is passive — no local work, nothing in
its inbox.  The coordinator is the real :meth:`ShardPool.run_phase`, whose
results queue advances the simulation one event at a time.  Hypothesis
draws the message graph (every delivery forwards along it until a hop
budget runs out), the origins of each run and every scheduling choice:
which message arrives next (only per-sender FIFO is kept, so a ``msg`` can
overtake a worker's ``start``), which worker takes its next inbox item or
delivers its next local message, and which report reaches the coordinator.

The barrier must never certify while a message is in flight, a worker has
local work or has not taken the run's ``start``, or a report is still on its
way; and it must certify once the workers have terminated.
"""

from collections import deque
from types import SimpleNamespace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.network.message import Message, MessageType
from repro.sharding.planner import ShardPlan
from repro.sharding.pool import ShardPool
from repro.sharding.worker import _WorkerTransport

COORDINATOR = -1


class Link:
    """An outbox: what goes in is in flight from ``producer`` to ``target``."""

    def __init__(self, network, producer, target):
        self.network, self.producer, self.target = network, producer, target

    def put(self, item):
        self.network.transit.append((self.producer, self.target, item))


class ModelWorker:
    """One shard worker's loop, a step at a time."""

    def __init__(self, network, shard, shard_of, graph, budget):
        self.shard = shard
        self.network = network
        self.graph = graph
        self.budget = budget
        self.transport = _WorkerTransport(
            shard,
            shard_of,
            [Link(network, shard, target) for target in range(network.shards)],
            None,
            max_messages=10**6,
        )
        for node in shard_of:
            self.transport.register(node, self._handler(node))
        self.inbox = deque()
        self.report_due = False

    def _handler(self, node):
        def handle(message):
            self._forward(node, message.payload["hops"] - 1)

        return handle

    def _forward(self, node, hops):
        if hops <= 0:
            return
        for successor in self.graph[node]:
            self.transport.send(
                Message(node, successor, MessageType.QUERY, {"hops": hops})
            )

    @property
    def passive(self):
        return not self.transport.has_local_work and not self.inbox

    def take(self):
        """Process the next inbox item, as ``shard_worker_loop`` does."""
        item = self.inbox.popleft()
        transport = self.transport
        if item[0] == "msg":
            if transport.receive_cross(*item[1:]):
                self.report_due = True
        else:
            _kind, run, _phase, origins, _mode, _change = item
            transport.start_run(run)
            for node in origins:
                if transport.shard_of[node] == self.shard:
                    self._forward(node, self.budget)
            self.report_due = True

    def deliver(self):
        self.transport.drain(1)

    def maybe_report(self):
        """Report unasked once passive, with this worker's latest run."""
        if self.report_due and self.passive:
            transport = self.transport
            delivered = transport.delivered - transport.reported[0]
            transport.reported = (transport.delivered, transport.cross_received)
            payload = {"shard": self.shard, "delivered": delivered}
            self.network.reports[self.shard].append(
                ("report", self.shard, transport.run, transport.ledger(), payload)
            )
            self.report_due = False


class ModelNetwork:
    """The workers, what is in flight between them, and the reports in
    flight to the coordinator; ``get`` is the pool's results queue."""

    def __init__(self, draw, shards, shard_of, graph, budget):
        self.draw = draw
        self.shards = shards
        self.transit = []
        self.reports = [deque() for _ in range(shards)]
        self.workers = [
            ModelWorker(self, shard, shard_of, graph, budget) for shard in range(shards)
        ]

    def events(self):
        events, seen = [], set()
        for index, (producer, target, _item) in enumerate(self.transit):
            if (producer, target) not in seen:  # FIFO per sender and receiver
                seen.add((producer, target))
                events.append(("arrive", index))
        for worker in self.workers:
            if worker.inbox:
                events.append(("take", worker.shard))
            if worker.transport.has_local_work:
                events.append(("deliver", worker.shard))
            if self.reports[worker.shard]:
                events.append(("report", worker.shard))
        return events

    def get(self, timeout=None):
        while True:
            events = self.events()
            assert events, "the workers terminated but the barrier did not certify"
            kind, index = events[self.draw(st.integers(0, len(events) - 1))]
            if kind == "arrive":
                _producer, target, item = self.transit.pop(index)
                self.workers[target].inbox.append(item)
            elif kind == "report":
                return self.reports[index].popleft()
            else:
                worker = self.workers[index]
                if kind == "take":
                    worker.take()
                else:
                    worker.deliver()
                worker.maybe_report()

    def delivered(self):
        return sum(worker.transport.delivered for worker in self.workers)

    def check_terminated(self, run):
        assert not self.transit, "certified with a message in flight"
        for worker in self.workers:
            assert worker.transport.run == run, "certified before a worker started"
            assert worker.passive, "certified with work pending"
            assert not worker.transport._held, "certified with a message held"
            assert not self.reports[worker.shard], "certified before a report landed"


class ModelPool(ShardPool):
    """The real barrier over the model network's channels and results."""

    def __init__(self, network, plan):
        self._network = network
        super().__init__(plan, [SimpleNamespace(max_messages=10**6)] * plan.shard_count)

    def _open(self, worlds):
        self._results = self._network
        self._channels = [
            SimpleNamespace(
                put=Link(self._network, COORDINATOR, shard).put,
                alive=True,
                reason="",
                close=lambda: None,
            )
            for shard in range(len(worlds))
        ]

    def _await_ready(self):
        pass


@st.composite
def networks(draw):
    shards = draw(st.integers(2, 3))
    nodes = [f"n{index}" for index in range(draw(st.integers(2, 4)))]
    shard_of = {node: draw(st.integers(0, shards - 1)) for node in nodes}
    graph = {
        node: draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=2))
        for node in nodes
    }
    budget = draw(st.integers(1, 3))
    runs = draw(
        st.lists(
            st.lists(st.sampled_from(nodes), min_size=1, max_size=2),
            min_size=1,
            max_size=3,
        )
    )
    return shards, shard_of, graph, budget, runs


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(networks(), st.data())
def test_the_barrier_certifies_exactly_when_the_workers_terminated(shape, data):
    shards, shard_of, graph, budget, runs = shape
    network = ModelNetwork(data.draw, shards, shard_of, graph, budget)
    pool = ModelPool(network, ShardPlan(shards, shard_of))
    for origins in runs:
        before = network.delivered()
        payloads = pool.run_phase("update", origins)
        network.check_terminated(pool._run)
        # Every delivery of the run is in one of its reports, pre-start ones too.
        assert sum(payload["delivered"] for payload in payloads) == (
            network.delivered() - before
        )
