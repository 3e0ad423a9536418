"""The one engine table of the cross-engine suites.

A label names an engine configuration, and ``ENGINES[label]`` holds the spec
settings that select it.  Each label is the ``engine.name`` the session
reports, except "sync-seeded": the simulator under another legal delivery
order.  A test turns a spec into a row through the ``on_engine`` fixture
(``tests/conftest.py``).  That fixture also runs the socket rows on the
test session's two shard hosts; ``ENGINES["socket"]`` used alone spawns
hosts of its own.  :func:`run_naive` is the naive reference on any engine.
"""

from repro.api.session import Session
from repro.network.latency import UniformLatency

ENGINES = {
    "sync": {},
    "sync-seeded": {"latency": UniformLatency(0, 1, seed=5)},
    "pooled": {"transport": "pooled", "shards": 2},
    "socket": {"transport": "socket", "shards": 2},
}

#: The rows whose peers live in shard workers outside this interpreter.
PARTITIONED = tuple(label for label, row in ENGINES.items() if "transport" in row)

#: One row per engine: the simulator at its constant latency and the
#: partitioned rows.
ONE_PER_ENGINE = ("sync", *PARTITIONED)


def run_naive(system, phase="update", origins=None):
    """Run ``phase`` on the naive path, asked for the way production asks:
    a fresh session over ``system`` has no previous run to compare with, so
    it hands its engine no change (``change=None``)."""
    with Session(system) as fresh:
        return fresh.run(phase, origins=origins)
