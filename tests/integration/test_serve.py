"""Integration tests: the serving front-end over real sockets and warm pools.

One module-scoped server hosts two warm (pooled) tenants; the tests drive it
the way a deployment would — concurrent closed-loop clients over HTTP, the
WebSocket event channel, the Prometheus exposition — and pin the serving
contract: interleaved concurrent updates and queries end at the *same*
ground fix-point a sequential session reaches, warm insert-only updates take
the incremental path (visible in ``repro_incremental_*`` counters), and
overload rejects typed 429s instead of hanging.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api.session import Session
from repro.api.spec import ScenarioSpec
from repro.experiments import serving
from repro.serve import ServeClient, ServeError, ServerConfig, ServerHandle
from repro.sharding.pool import package_pythonpath
from repro.workloads.scenarios import (
    paper_example_data,
    paper_example_rules,
    paper_example_schemas,
)
from repro.workloads.topologies import tree_topology


def paper_spec() -> ScenarioSpec:
    return ScenarioSpec.of(
        paper_example_schemas(),
        paper_example_rules(),
        paper_example_data(),
        super_peer="A",
        name="paper-example",
    )


def tree_spec() -> ScenarioSpec:
    return ScenarioSpec.from_topology(
        tree_topology(2, 2), records_per_node=2, seed=7
    )


@pytest.fixture(scope="module")
def server():
    with ServerHandle(ServerConfig(port=0, queue_depth=64)) as handle:
        client = ServeClient(handle.host, handle.port)
        client.create_tenant("paper", json.loads(paper_spec().dump_json()))
        client.create_tenant("tree", json.loads(tree_spec().dump_json()))
        yield handle, client
        client.close()


class TestServing:
    def test_tenants_are_warm_pooled(self, server):
        _handle, client = server
        for name in ("paper", "tree"):
            status = client.status(name)
            assert status["state"] == "ready"
            assert status["engine"] == "pooled"

    def test_concurrent_interleaved_load_matches_sequential_fixpoint(
        self, server
    ):
        """The acceptance bar: N clients × updates+queries, zero 5xx, parity."""
        handle, client = server
        clients, operations = 8, 3
        inserted: list[tuple[str, str]] = []
        failures: list[str] = []
        lock = threading.Lock()

        def loop(client_id: int) -> None:
            own = ServeClient(handle.host, handle.port)
            try:
                for op in range(operations):
                    row = (f"c{client_id}", f"op{op}")
                    try:
                        outcome = own.update(
                            "paper", inserts={"E": {"e": [list(row)]}}
                        )
                        assert outcome["mode"] == "incremental", outcome
                        answers = own.query(
                            "paper", "B", "q(X, Y) :- b(X, Y)"
                        )
                        assert answers["count"] >= 7
                        with lock:
                            inserted.append(row)
                    except ServeError as error:
                        if error.status >= 500:
                            with lock:
                                failures.append(str(error))
                        elif error.status == 429:
                            # Bounded-queue rejections are allowed; the row
                            # was not applied, so don't record it.
                            pass
                        else:
                            with lock:
                                failures.append(str(error))
            finally:
                own.close()

        threads = [
            threading.Thread(target=loop, args=(i,)) for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures
        assert len(inserted) == clients * operations  # depth-64 queue: no 429s

        served = handle.app.manager.get("paper").session.system.databases()

        with Session.from_spec(paper_spec()) as sequential:
            sequential.run("update")
            for row in sorted(inserted):
                sequential.system.node("E").database.relation("e").insert(row)
            sequential.run("update")
            reference = sequential.system.databases()
        assert served == reference

    def test_incremental_counters_in_metrics(self, server):
        _handle, client = server
        client.update("tree", inserts=_tree_insert(client, tag="metrics"))
        text = client.metrics()
        lines = [
            line
            for line in text.splitlines()
            if line.startswith("repro_incremental_seed_rows_total")
        ]
        assert any('tenant="paper"' in line for line in lines), text[:2000]
        assert any('tenant="tree"' in line for line in lines)
        assert 'repro_serve_requests_total{' in text
        assert 'repro_serve_tenants{state="ready"} 2' in text

    def test_a_removal_reports_the_path_the_engine_took(self, server):
        # The mode is read from what the engine did, not inferred from the
        # document: a warm rows-only removal rides the delta path too.
        handle, client = server
        document = _tree_insert(client, tag="removed")
        assert client.update("tree", inserts=document)["mode"] == "incremental"
        outcome = client.update("tree", removes=document)
        assert outcome["mode"] == "incremental", outcome
        assert outcome["incremental"]["repro_incremental_seed_rows_total"] == 1
        [(node, relations)] = document.items()
        [(relation, [row])] = relations.items()
        system = handle.app.manager.get("tree").session.system
        assert tuple(row) not in system.node(node).database.relation(relation)
        # A rule change still re-runs naively, and says so.
        rule = next(iter(system.registry))
        outcome = client.update(
            "tree", remove_rules=[rule.rule_id], add_rules=[rule.text]
        )
        assert outcome["mode"] == "naive"

    def test_event_channel_streams_runs(self, server):
        handle, client = server
        with client.events("paper") as events:
            hello = events.next_event()
            assert hello["type"] == "hello"
            outcome = client.update(
                "paper", inserts={"E": {"e": [["ws-x", "ws-y"]]}}
            )
            assert outcome["mode"] == "incremental"
            event = events.next_event()
            assert event["tenant"] == "paper"
            assert event["type"] == "run"
            assert event["outcome"] == "ok"
            assert event["mode"] == "incremental"
            assert event["spans"], "run events carry the tracer's spans"

    def test_healthz_and_typed_errors_over_the_wire(self, server):
        _handle, client = server
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["tenants"]["ready"] == 2
        with pytest.raises(ServeError) as excinfo:
            client.status("ghost")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown_tenant"
        with pytest.raises(ServeError) as excinfo:
            client.update("paper", inserts={"E": {"e": [["wrong"]]}})
        assert excinfo.value.status == 400

    def test_tenant_close_and_reload_lifecycle(self, server):
        handle, client = server
        spec_doc = json.loads(paper_spec().dump_json())
        client.create_tenant("ephemeral", spec_doc)
        assert client.status("ephemeral")["state"] == "ready"
        closed = client.close_tenant("ephemeral")
        assert closed["state"] == "closed"
        with pytest.raises(ServeError) as excinfo:
            client.status("ephemeral")
        assert excinfo.value.status == 404
        # The name is free again after a close.
        client.create_tenant("ephemeral", spec_doc)
        client.close_tenant("ephemeral")


def _tree_insert(client: ServeClient, *, tag: str) -> dict:
    """An insert document for the tree tenant's first single-body rule site."""
    spec = tree_spec()
    node, relation, arity = serving.feeding_site(spec)
    return {node: {relation: [[f"{tag}-{i}" for i in range(arity)]]}}


class TestServingExperiment:
    # 100 closed-loop clients can overfill a tenant's 64-deep update queue,
    # so the slow case also exercises the 429-then-retry path under load.
    @pytest.mark.parametrize(
        "clients", [2, pytest.param(100, marks=pytest.mark.slow)]
    )
    def test_e12_smoke(self, capsys, clients):
        rows = serving.run_serving_sweep(
            records_per_node=2, clients=clients, operations=2
        )
        assert [row.tenant for row in rows] == ["paper", "tree"]
        for row in rows:
            assert row.ok, row
            assert row.updates == row.queries == clients * 2
            assert row.incremental == row.updates
        table = serving.main(records_per_node=2, clients=2, operations=1)
        assert "E12" in table
        assert "incremental" in table


def session_members(session_id: int) -> list[int]:
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


@pytest.mark.skipif(
    not os.path.exists("/proc/self/stat"), reason="reads process sessions from /proc"
)
def test_sigterm_drains_the_tenants_and_leaves_no_process(tmp_path):
    """``python -m repro serve`` stopped with SIGTERM takes its pool with it."""
    (tmp_path / "paper.json").write_text(paper_spec().dump_json())
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--bind", f"127.0.0.1:{port}"]
        + ["--tenants", str(tmp_path), "--preload", "paper"],
        env=dict(
            os.environ, PYTHONPATH=package_pythonpath(os.environ.get("PYTHONPATH"))
        ),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        client = ServeClient("127.0.0.1", port, timeout=10.0)
        deadline = time.monotonic() + 60.0
        while True:
            try:
                health = client.healthz()
                break
            except OSError:
                assert server.poll() is None, "the server exited during boot"
                assert time.monotonic() < deadline, "the server never came up"
                time.sleep(0.1)
        client.close()
        assert health["tenants"].get("ready") == 1
        # The server, the fork server and the tenant's pool workers.
        assert len(session_members(server.pid)) > 2
        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=30.0) == 0
        deadline = time.monotonic() + 10.0
        while session_members(server.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert session_members(server.pid) == []
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        for pid in session_members(server.pid):
            os.kill(pid, signal.SIGKILL)
