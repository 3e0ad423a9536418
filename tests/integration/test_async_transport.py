"""Integration tests of the protocols over the asyncio transport."""

import asyncio

from repro.api import Session
from repro.core.fixpoint import ground_part
from repro.core.superpeer import SuperPeer
from repro.core.system import P2PSystem
from repro.coordination.rule import rule_from_text
from repro.database.schema import DatabaseSchema, RelationSchema
from repro.network.latency import UniformLatency
from repro.workloads.scenarios import build_paper_example


def run(coro):
    return asyncio.run(coro)


class TestAsyncUpdate:
    def test_paper_example_async_matches_sync(self):
        async def async_run():
            system = build_paper_example(
                transport="async", propagation="once",
                latency=UniformLatency(0.2, 2.0, seed=11),
            )
            await Session(system).run_async("discovery", origins=["A"])
            await Session(system).run_async("update")
            return system.databases()

        async_result = run(async_run())

        sync_system = build_paper_example(propagation="once")
        SuperPeer(sync_system, "A").run_discovery()
        Session(sync_system).run("update")

        assert ground_part(async_result) == ground_part(sync_system.databases())

    def test_async_chain_update(self):
        async def scenario():
            schemas = {
                name: DatabaseSchema([RelationSchema("item", ["x", "y"])])
                for name in ("a", "b", "c")
            }
            rules = [
                rule_from_text("ab", "b: item(X, Y) -> a: item(X, Y)"),
                rule_from_text("bc", "c: item(X, Y) -> b: item(X, Y)"),
            ]
            data = {"c": {"item": [("1", "2")]}}
            system = P2PSystem.build(
                schemas, rules, data,
                transport="async",
                latency=UniformLatency(0.1, 1.0, seed=3),
            )
            snapshot = (await Session(system).run_async("update")).stats
            return system, snapshot

        system, snapshot = run(scenario())
        assert system.node("a").database.relation("item").rows() == {("1", "2")}
        assert snapshot.total_messages > 0

    def test_async_discovery_populates_paths(self):
        async def scenario():
            system = build_paper_example(transport="async", with_data=False)
            await Session(system).run_async("discovery", origins=["A"])
            return {"".join(p) for p in system.node("A").state.maximal_paths()}

        assert run(scenario()) == {"ABE", "ABCA", "ABCB", "ABCDA"}

    def test_async_statistics_recorded(self):
        async def scenario():
            system = build_paper_example(transport="async")
            await Session(system).run_async("update")
            return system.snapshot_stats()

        snapshot = run(scenario())
        assert snapshot.total_messages > 0
        assert snapshot.total_tuples_inserted > 0
