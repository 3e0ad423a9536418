"""Unit tests for the serving front-end: protocol, admission, routing.

Everything here drives :class:`~repro.serve.ServeApp` in-process (no
sockets): requests are built by hand, responses inspected as data.  Tenants
boot with ``warm=False`` so the synchronous engine serves them — the warm
pooled path is the integration suite's job (``tests/integration/test_serve``).
"""

import asyncio
import json
import threading

import pytest

from repro.api.spec import ScenarioSpec
from repro.errors import ReproError
from repro.serve import (
    HttpRequest,
    ProtocolViolation,
    ServeApp,
    ServerConfig,
    parse_changes,
    warm_spec,
)
from repro.serve.protocol import (
    WS_TEXT,
    HttpResponse,
    build_frame,
    parse_frame,
    read_request,
    render_response,
    websocket_accept,
)
from repro.workloads.scenarios import (
    paper_example_data,
    paper_example_rules,
    paper_example_schemas,
)
from sync_oracle import snapshot_of


def paper_spec() -> ScenarioSpec:
    return ScenarioSpec.of(
        paper_example_schemas(),
        paper_example_rules(),
        paper_example_data(),
        super_peer="A",
    )


def request(
    method: str, path: str, document: dict | None = None, headers: dict | None = None
) -> HttpRequest:
    from urllib.parse import parse_qs, urlsplit

    split = urlsplit(path)
    return HttpRequest(
        method=method,
        target=path,
        path=split.path,
        query=parse_qs(split.query),
        headers={k.lower(): v for k, v in (headers or {}).items()},
        body=json.dumps(document).encode() if document is not None else b"",
    )


def run(coroutine):
    return asyncio.run(coroutine)


async def booted_app(**config) -> ServeApp:
    """An app with the paper example loaded cold (sync engine)."""
    app = ServeApp(ServerConfig(warm=False, **config))
    spec_doc = json.loads(paper_spec().dump_json())
    response = await app.handle(
        request("POST", "/tenants", {"name": "paper", "spec": spec_doc})
    )
    assert response.status == 201, response.body
    return app


def body(response: HttpResponse) -> dict:
    return json.loads(response.body.decode())


# ------------------------------------------------------------------- protocol


class TestProtocol:
    def test_ws_frame_round_trips_masked_and_unmasked(self):
        payload = json.dumps({"hello": "world"}).encode()
        for mask in (False, True):
            frame = build_frame(WS_TEXT, payload, mask=mask)
            buffered = bytearray(frame)

            def read_exact(n):
                taken = bytes(buffered[:n])
                del buffered[:n]
                return taken

            opcode, decoded = parse_frame(read_exact)
            assert opcode == WS_TEXT
            assert decoded == payload

    def test_ws_frame_long_payload_lengths(self):
        for size in (200, 70_000):
            frame = build_frame(WS_TEXT, b"x" * size, mask=True)
            buffered = bytearray(frame)

            def read_exact(n):
                taken = bytes(buffered[:n])
                del buffered[:n]
                return taken

            opcode, decoded = parse_frame(read_exact)
            assert decoded == b"x" * size

    def test_websocket_accept_is_rfc6455_example(self):
        # The worked example of RFC 6455 section 1.3.
        assert (
            websocket_accept("dGhlIHNhbXBsZSBub25jZQ==")
            == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
        )

    def test_read_request_parses_line_headers_and_body(self):
        async def scenario():
            reader = asyncio.StreamReader()
            payload = b'{"a": 1}'
            reader.feed_data(
                b"POST /tenants/x/update?k=v HTTP/1.1\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + str(len(payload)).encode() + b"\r\n"
                b"\r\n" + payload
            )
            reader.feed_eof()
            parsed = await read_request(reader)
            assert parsed.method == "POST"
            assert parsed.segments == ("tenants", "x", "update")
            assert parsed.param("k") == "v"
            assert parsed.json() == {"a": 1}

        run(scenario())

    def test_read_request_rejects_garbage(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(b"NOT A REQUEST\r\n\r\n")
            reader.feed_eof()
            with pytest.raises(ProtocolViolation):
                await read_request(reader)

        run(scenario())

    def test_render_response_frames_body_and_retry_after(self):
        raw = render_response(
            HttpResponse.error(429, "queue_full", "full", retry_after=0.2),
            keep_alive=True,
        )
        head, _, rendered = raw.partition(b"\r\n\r\n")
        assert b"HTTP/1.1 429 Too Many Requests" in head
        assert b"Retry-After: 1" in head
        assert json.loads(rendered)["error"]["code"] == "queue_full"


# -------------------------------------------------------------------- changes


class TestParseChanges:
    def test_parses_inserts_rules_and_flags(self):
        changes = parse_changes(
            {
                "inserts": {"E": {"e": [["x", "y"]]}},
                "add_rules": ["r9: E: e(X, Y) -> B: b(X, Y)"],
            }
        )
        assert changes.inserts["E"]["e"] == (("x", "y"),)
        assert changes.add_rules[0].rule_id == "r9"
        assert not changes.insert_only  # a rule change forces the naive path
        assert parse_changes({"inserts": {"E": {"e": [["x", "y"]]}}}).insert_only

    def test_rejects_unknown_fields_and_malformed_rows(self):
        with pytest.raises(ReproError, match="unknown update field"):
            parse_changes({"insert": {}})
        with pytest.raises(ReproError, match="rows must be arrays"):
            parse_changes({"inserts": {"E": {"e": ["not-a-row"]}}})
        with pytest.raises(ReproError, match="cannot parse rule"):
            parse_changes({"add_rules": ["no-arrow-here"]})

    def test_warm_spec_moves_sync_to_pooled(self):
        spec = paper_spec()
        assert spec.transport == "sync"
        warmed = warm_spec(spec)
        assert warmed.transport == "pooled"
        # A shard count the sync transport refuses still serves, pooled.
        sharded = warm_spec(spec.with_(shards=3))
        assert (sharded.transport, sharded.shards) == ("pooled", 3)

    @pytest.mark.parametrize("transport", ["pooled", "socket"])
    def test_warm_spec_passes_a_partitioned_spec_through(self, transport):
        partitioned = paper_spec().with_(transport=transport, shards=2)
        assert warm_spec(partitioned) is partitioned


# ------------------------------------------------------------------- endpoints


class TestEndpoints:
    def test_healthz_and_lifecycle(self):
        async def scenario():
            app = await booted_app()
            health = body(await app.handle(request("GET", "/healthz")))
            assert health["status"] == "ok"
            assert health["tenants"] == {"ready": 1}

            listing = body(await app.handle(request("GET", "/tenants")))
            assert [row["name"] for row in listing["tenants"]] == ["paper"]

            status = body(await app.handle(request("GET", "/tenants/paper")))
            assert status["state"] == "ready"
            assert status["nodes"] == 5
            assert status["engine"] == "sync"

            closed = await app.handle(request("POST", "/tenants/paper/close", {}))
            assert body(closed)["state"] == "closed"
            assert body(await app.handle(request("GET", "/tenants")))["tenants"] == []
            await app.shutdown()

        run(scenario())

    def test_update_applies_and_query_reads(self):
        async def scenario():
            app = await booted_app()
            query_target = (
                "/tenants/paper/query?node=B&q=q(X,%20Y)%20:-%20b(X,%20Y)"
            )
            before = body(await app.handle(request("GET", query_target)))
            updated = body(
                await app.handle(
                    request(
                        "POST",
                        "/tenants/paper/update",
                        {"inserts": {"E": {"e": [["s9", "t9"]]}}},
                    )
                )
            )
            assert updated["tuples_added"] >= 1
            assert updated["mode"] in ("incremental", "naive")
            after = body(
                await app.handle(
                    request(
                        "POST",
                        "/tenants/paper/query",
                        {"node": "B", "query": "q(X, Y) :- b(X, Y)"},
                    )
                )
            )
            assert after["count"] == before["count"] + 1
            assert ["s9", "t9"] in after["answers"]
            await app.shutdown()

        run(scenario())

    def test_error_mapping_404_405_400_409(self):
        async def scenario():
            app = await booted_app()
            cases = [
                (request("GET", "/nope"), 404, "unknown_route"),
                (request("GET", "/tenants/ghost"), 404, "unknown_tenant"),
                (request("PUT", "/tenants"), 404, "unknown_route"),
                (
                    request("POST", "/tenants/paper/update", {"insert": {}}),
                    400,
                    "bad_request",
                ),
                (
                    request(
                        "POST",
                        "/tenants/paper/update",
                        {"inserts": {"E": {"e": [["one-column"]]}}},
                    ),
                    400,
                    "bad_request",
                ),
                (
                    request(
                        "POST",
                        "/tenants/paper/update",
                        {"inserts": {"GHOST": {"e": [["a", "b"]]}}},
                    ),
                    400,
                    "bad_request",
                ),
                (request("GET", "/tenants/paper/query?node=B"), 400, "bad_request"),
                (request("GET", "/tenants/paper/events"), 426, "upgrade_required"),
            ]
            for built, status, code in cases:
                response = await app.handle(built)
                assert response.status == status, (built.path, body(response))
                assert body(response)["error"]["code"] == code
            duplicate = await app.handle(
                request(
                    "POST",
                    "/tenants",
                    {
                        "name": "paper",
                        "spec": json.loads(paper_spec().dump_json()),
                    },
                )
            )
            assert duplicate.status == 409
            assert body(duplicate)["error"]["code"] == "tenant_exists"
            await app.shutdown()

        run(scenario())

    def test_bad_spec_rejected_and_not_left_loaded(self):
        async def scenario():
            app = ServeApp(ServerConfig(warm=False))
            response = await app.handle(
                request("POST", "/tenants", {"name": "bad", "spec": {"nope": 1}})
            )
            assert response.status == 400
            assert body(response)["error"]["code"] == "bad_spec"
            listing = body(await app.handle(request("GET", "/tenants")))
            assert listing["tenants"] == []
            await app.shutdown()

        run(scenario())

    def test_metrics_exposition_labels_tenants(self):
        async def scenario():
            app = await booted_app()
            await app.handle(
                request(
                    "POST",
                    "/tenants/paper/update",
                    {"inserts": {"E": {"e": [["m1", "m2"]]}}},
                )
            )
            response = await app.handle(request("GET", "/metrics"))
            assert response.status == 200
            text = response.body.decode()
            assert 'repro_serve_tenants{state="ready"} 1' in text
            assert 'repro_serve_runs_completed_total{tenant="paper"} 1' in text
            # The tenant's own stats registry folds in under its label.
            assert 'tenant="paper"' in text
            assert "repro_serve_requests_total" in text
            await app.shutdown()

        run(scenario())

    def test_a_tenants_metrics_carry_every_family_of_its_session_export(self):
        async def scenario():
            app = await booted_app()
            await app.handle(
                request(
                    "POST",
                    "/tenants/paper/update",
                    {"inserts": {"E": {"e": [["m1", "m2"]]}}},
                )
            )
            text = (await app.handle(request("GET", "/metrics"))).body.decode()
            session = app.manager.tenants["paper"].session
            exported = session.export_metrics("prometheus")
            await app.shutdown()
            return text, exported

        text, exported = run(scenario())
        families = [line for line in exported.splitlines() if line.startswith("#")]
        assert "# TYPE repro_span_seconds histogram" in families
        assert "# TYPE repro_chase_calls_total counter" in families
        served = text.splitlines()
        assert [line for line in families if line not in served] == []
        assert 'repro_span_seconds_count{name="chase",tenant="paper"} 2' in served
        assert 'repro_chase_calls_total{tenant="paper"}' in text

    def test_overload_rejects_429_and_never_hangs(self):
        async def scenario():
            app = await booted_app(queue_depth=2)
            tenant = app.manager.get("paper")
            entered, release = threading.Event(), threading.Event()

            def block():
                entered.set()
                assert release.wait(timeout=30)

            # Fire the first update as a task, wait until its worker thread
            # is inside the run (the queue slot is free again), then fill
            # the bounded queue and overflow it.
            tenant._pre_run_hook = block
            first = asyncio.ensure_future(
                app.handle(
                    request(
                        "POST",
                        "/tenants/paper/update",
                        {"inserts": {"E": {"e": [["b1", "b1"]]}}},
                    )
                )
            )
            await asyncio.get_running_loop().run_in_executor(
                None, entered.wait, 30
            )
            queued = [
                asyncio.ensure_future(
                    app.handle(
                        request(
                            "POST",
                            "/tenants/paper/update",
                            {"inserts": {"E": {"e": [[f"q{i}", f"q{i}"]]}}},
                        )
                    )
                )
                for i in range(2)
            ]
            await asyncio.sleep(0.05)  # let both submissions enqueue
            assert tenant.queue.qsize() == 2

            overflow = await app.handle(
                request(
                    "POST",
                    "/tenants/paper/update",
                    {"inserts": {"E": {"e": [["over", "over"]]}}},
                )
            )
            assert overflow.status == 429
            assert body(overflow)["error"]["code"] == "queue_full"
            assert "Retry-After" in overflow.headers

            release.set()
            responses = await asyncio.gather(first, *queued)
            assert [r.status for r in responses] == [200, 200, 200]
            assert tenant.updates_rejected == 1
            await app.shutdown()

        run(scenario())

    def test_naive_mode_reported_for_removals(self):
        # A removed row rides the delta path, on the cold tenant's sync
        # engine too; a cleared relation is rewritten whole, which only a
        # naive re-run can take, on every engine.
        async def scenario():
            app = await booted_app()
            rows = {"E": {"e": [["n1", "n2"]]}}
            modes = []
            for document in ({"inserts": rows}, {"removes": rows}):
                response = await app.handle(
                    request("POST", "/tenants/paper/update", document)
                )
                modes.append(body(response)["mode"])
            system = app.manager.get("paper").session.system
            system.node("E").database.relation("e").clear()
            response = await app.handle(request("POST", "/tenants/paper/update", {}))
            modes.append(body(response)["mode"])
            assert modes == ["incremental", "incremental", "naive"]
            await app.shutdown()

        run(scenario())

    def test_an_empty_update_reports_the_path_it_took(self):
        # Nothing to seed still takes the delta path on a primed tenant: the
        # mode is start_run's decision, not read off the rows seeded.
        async def scenario():
            app = await booted_app()
            update = request("POST", "/tenants/paper/update", {})
            empty = body(await app.handle(update))
            assert (empty["mode"], empty["messages"]) == ("incremental", 0)
            system = app.manager.get("paper").session.system
            system.node("E").database.relation("e").clear()
            assert body(await app.handle(update))["mode"] == "naive"
            await app.shutdown()

        run(scenario())

    def test_an_update_reports_the_messages_of_its_own_run(self):
        # Two one-row inserts: each answer and each run event carries its
        # request's increase of the tenant's repro_messages_total, not the
        # tenant's lifetime count.
        async def scenario():
            app = await booted_app()
            events = app.manager.subscribe("paper")

            async def sent() -> int:
                text = (await app.handle(request("GET", "/metrics"))).body.decode()
                return sum(
                    int(float(line.rsplit(" ", 1)[1]))
                    for line in text.splitlines()
                    if line.startswith("repro_messages_total{")
                    and 'tenant="paper"' in line
                )

            for row in (["w1", "w2"], ["w3", "w4"]):
                before = await sent()
                document = {"inserts": {"E": {"e": [row]}}}
                answer = body(
                    await app.handle(
                        request("POST", "/tenants/paper/update", document)
                    )
                )
                event = events.get_nowait()
                assert answer["messages"] == event["messages"] > 0
                assert answer["messages"] == await sent() - before
            await app.shutdown()

        run(scenario())

    def test_a_rejected_update_applies_nothing(self):
        # Checked before anything mutates: the valid insert riding along
        # with an unknown rule id must not stay behind.
        async def scenario():
            app = await booted_app()
            system = app.manager.get("paper").session.system
            before = snapshot_of(system)
            response = await app.handle(
                request(
                    "POST",
                    "/tenants/paper/update",
                    {
                        "inserts": {"E": {"e": [["s9", "t9"]]}},
                        "remove_rules": ["no-such-rule"],
                    },
                )
            )
            assert response.status == 400
            assert body(response)["error"]["code"] == "bad_request"
            assert "unknown rule id" in body(response)["error"]["message"]
            assert snapshot_of(system) == before
            assert len(system.node("E").database.relation("e")) == 2
            await app.shutdown()

        run(scenario())

    def test_every_run_gives_its_worker_slot_back(self):
        # One slot: a boot, an applied update and a rejected one each hold
        # it in turn, and a query after them must still get it in time.
        async def scenario():
            app = await booted_app(max_workers=1, query_budget_timeout=0.5)
            target = "/tenants/paper/update"
            applied = await app.handle(
                request("POST", target, {"inserts": {"E": {"e": [["s9", "t9"]]}}})
            )
            assert applied.status == 200
            rejected = await app.handle(
                request("POST", target, {"remove_rules": ["no-such-rule"]})
            )
            assert rejected.status == 400
            answered = await app.handle(
                request(
                    "POST",
                    "/tenants/paper/query",
                    {"node": "E", "query": "q(X, Y) :- e(X, Y)"},
                )
            )
            assert answered.status == 200, answered.body
            assert ["s9", "t9"] in body(answered)["answers"]
            await app.shutdown()

        run(scenario())

    def test_a_rule_edit_in_one_document_applies(self):
        # Rules go out before they come in, so an edit under the same id is
        # one document, not two.
        async def scenario():
            app = await booted_app()
            response = await app.handle(
                request(
                    "POST",
                    "/tenants/paper/update",
                    {
                        "remove_rules": ["r1"],
                        "add_rules": ["r1: E: e(X, Y) -> B: b(Y, X)"],
                    },
                )
            )
            assert response.status == 200, body(response)
            assert body(response)["mode"] == "naive"
            system = app.manager.get("paper").session.system
            assert system.registry.get("r1").text == "r1: E:e(X, Y) -> B:b(Y, X)"
            assert ("t", "s") in system.node("B").database.relation("b")
            await app.shutdown()

        run(scenario())

    def test_a_rule_breaking_weak_acyclicity_is_rejected_at_admission(self):
        # With r1 (E.e -> B.b) the added rule closes an existential cycle:
        # installed, the chase would run until max_messages.
        document = {"add_rules": ["x1: B: b(X, Y) -> E: e(Y, Z)"]}

        async def scenario():
            app = await booted_app()
            tenant = app.manager.get("paper")
            before = snapshot_of(tenant.session.system)
            with pytest.raises(ReproError, match="T001"):
                tenant.validate_changes(parse_changes(document))
            response = await app.handle(
                request("POST", "/tenants/paper/update", document)
            )
            assert response.status == 400
            assert body(response)["error"]["code"] == "bad_request"
            assert "T001" in body(response)["error"]["message"]
            assert snapshot_of(tenant.session.system) == before
            await app.shutdown()

        run(scenario())

    def test_route_matching_rejects_wrong_methods(self):
        from repro.serve.app import match_route

        assert match_route("GET", ("healthz",)).label == "healthz"
        assert match_route("POST", ("healthz",)) is None
        assert match_route("DELETE", ("tenants", "x")).label == "tenants.close"
        assert match_route("PATCH", ("tenants", "x")) is None
        assert match_route("GET", ("tenants", "x", "update")) is None
        assert match_route("GET", ()) is None
