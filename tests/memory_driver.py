"""An in-memory driver for shard workers: real state machines, no processes.

Each :class:`~repro.sharding.worker.ShardWorker` is built from its
:class:`~repro.sharding.worker.ShardWorld` and stepped in this one process.
Everything the coordinator and the machines send stays in flight until the
``choose`` callback picks the next event, so a test fixes every scheduling
choice:

* which in-flight item arrives next — only FIFO per sender and receiver is
  kept, so a ``msg`` can overtake a worker's ``start``;
* which worker takes its next inbox item, or steps its local queue;
* which reply reaches the coordinator.

Like every driver, it asks a machine for its idle report only when the
machine's inbox is empty.  :meth:`MemoryDriver.get` is a reply source with a
queue's ``get(timeout)``, and :meth:`MemoryDriver.channel` a shard's
channel, so the real :class:`~repro.sharding.pool.ShardPool` runs on top
(:class:`DrivenPool`).
"""

from collections import deque
from types import SimpleNamespace

from repro.sharding.pool import ShardPool
from repro.sharding.worker import ShardWorker

COORDINATOR = -1


class MemoryDriver:
    """K machines, what is in flight between them, and their replies."""

    def __init__(self, worlds, choose):
        #: ``choose(n)`` picks one of ``n`` possible next events.
        self.choose = choose
        self.workers = [ShardWorker(world) for world in worlds]
        self.transit: list[tuple[int, int, tuple]] = []
        self.inboxes = [deque() for _ in worlds]
        self.replies = [deque() for _ in worlds]

    def channel(self, shard: int):
        """The coordinator's channel to one machine."""
        return SimpleNamespace(
            put=lambda command: self.transit.append((COORDINATOR, shard, command)),
            alive=True,
            reason="",
            close=lambda: None,
        )

    def events(self) -> list[tuple[str, int]]:
        events, seen = [], set()
        for index, (producer, target, _item) in enumerate(self.transit):
            if (producer, target) not in seen:
                seen.add((producer, target))
                events.append(("arrive", index))
        for shard, worker in enumerate(self.workers):
            if self.inboxes[shard]:
                events.append(("take", shard))
            if worker.busy:
                events.append(("step", shard))
            if self.replies[shard]:
                events.append(("reply", shard))
        return events

    def get(self, timeout=None) -> tuple:
        """Run chosen events until one is a reply reaching the coordinator."""
        while True:
            events = self.events()
            assert events, "the workers terminated but no reply is on its way"
            kind, index = events[self.choose(len(events))]
            if kind == "arrive":
                _producer, target, item = self.transit.pop(index)
                self.inboxes[target].append(item)
                continue
            if kind == "reply":
                return self.replies[index].popleft()
            worker = self.workers[index]
            if kind == "take":
                item = self.inboxes[index].popleft()
                frames = [] if item[0] == "stop" else worker.handle(item)
            else:
                frames = worker.step()
            for _to, target, command in frames:
                self.transit.append((index, target, command))
            if not self.inboxes[index]:
                report = worker.idle()
                if report is not None:
                    self.replies[index].append(report)

    def quiet(self) -> bool:
        """Nothing in flight, queued, held or on its way home."""
        return not self.transit and not any(
            self.inboxes[shard]
            or self.replies[shard]
            or worker.busy
            or worker.transport._held
            for shard, worker in enumerate(self.workers)
        )


class DrivenPool(ShardPool):
    """The real barrier over the in-memory driver's channels and replies."""

    def __init__(self, driver, plan, worlds):
        self._driver = driver
        super().__init__(plan, worlds)

    def _open(self, worlds):
        self._results = self._driver
        self._channels = [self._driver.channel(shard) for shard in range(len(worlds))]

    def _await_ready(self):
        pass  # the driver built every machine before the pool opened
