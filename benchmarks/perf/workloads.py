"""The five benchmark workloads and the oracle every one of them is checked by.

Each workload is a function ``workload(run, budget)`` that
drives the system through its *public* surface only (``ScenarioSpec`` →
``Session`` → ``run``/``query``, or the HTTP API of ``python -m repro
serve``), records one latency sample per operation on the :class:`Run` it is
given, and compares its final ground databases with the centralized
fix-point of the same spec plus the changes it applied.

Why these five (the interaction map is in ``README.md``):

* ``cold_tree`` — the paper's data-heavy acyclic case; join, fragment
  handling and message sizing do the work, sharding and serving none.
* ``cold_clique`` — the same layers on a cyclic network: many rounds and
  ~42 rows shipped per row inserted, so trading re-shipped rows for
  bookkeeping wins here and may lose on ``cold_tree``.
* ``warm_pooled`` — one warm engine taking single-row writes: inserts ride
  the delta path, deletes fall back to the naive re-run, the no-change run
  is the engine's fixed cost; the database layer does almost nothing.
* ``warm_socket`` — the identical script over TCP shard hosts, so the gap to
  ``warm_pooled`` isolates the wire/framing layer.
* ``serve_mixed`` — reads beside writes through the HTTP front-end, two
  closed-loop clients; queries wait on the writer-preferring lock, so a
  longer update shows in ``query_ms_p90``.

The measured loop of every workload runs whole script cycles until its time
budget is spent (the driver contract passes ``--seconds``); every count that
is reported is per update, so it repeats exactly whatever the cycle count.
Every workload has a *focus update* — the cold update on ``cold_*``, the
one-row insert → update elsewhere — and the gated metrics are the ones that
mean the same thing for all five (the contract wants each of them from each
workload); deletes and queries are reported where the script has them.

The sandbox's host changes speed by a quarter and more, for seconds and for
minutes at a time, so between script cycles every workload times a fixed
*speed probe* (:func:`probe_seconds`), and every latency sample is brought to
the reference host's speed by the probes taken just before and after it
(:meth:`Run.probe`).  The reported timings are medians of those samples.
"""

from __future__ import annotations

import asyncio
import json
import resource
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterable, Mapping

from layers import LayerClock, span_totals

from repro.api.session import Session
from repro.api.spec import ScenarioSpec
from repro.baselines.centralized import centralized_update
from repro.core.fixpoint import ground_part
from repro.errors import ReproError
from repro.experiments.serving import feeding_site, query_for
from repro.serve.client import EventStream, ServeClient, ServeError
from repro.serve.protocol import HttpResponse, read_request, render_response
from repro.serve.tenants import parse_changes
from repro.workloads.topologies import TopologySpec, clique_topology, tree_topology

#: The fewest cold repetitions a pass makes however short its budget.
MIN_COLD_REPETITIONS = 3
#: A warm script's round: this many one-row inserts, then one no-change
#: update and one one-row delete.
ROUND = 5
#: Closed-loop clients of the serving workload (never more than ``nproc``).
SERVE_CLIENTS = 2
#: The problems a run remembers verbatim (all of them are counted).
_PROBLEM_LIMIT = 20
#: The speed probe's input: rows it indexes and hash-joins into a set of
#: tuples, the kind of work the program's database layer does.
_PROBE_ROWS = [(f"k{i % 100}", f"a{i}", f"b{i}") for i in range(800)]
#: CPU seconds one probe takes on the reference host: this sandbox at its
#: usual speed.  Only the scale of the reported timings hangs on it.
PROBE_REFERENCE_S = 1.5e-3
#: Probes taken at a time (≈ 8 ms in all); the batch reads as their median.
_PROBES = 5


# ------------------------------------------------------------------ recording


@dataclass
class Window:
    """The layer clock's and the tracer's view of one traced update."""

    wall: float
    seconds: Mapping[str, float] = field(default_factory=dict)
    calls: Mapping[str, int] = field(default_factory=dict)
    spans: Mapping[str, float] = field(default_factory=dict)
    shipped: int = 0
    inserted: int = 0


@dataclass
class Run:
    """Everything one pass of one workload measures."""

    workload: str
    seed: int
    #: The layer clock of a traced pass (wrappers installed), else None.
    clock: LayerClock | None = None
    #: True for the short untraced pass a traced run compares itself with:
    #: it measures the focus operation only.
    reference: bool = False
    #: Seconds per operation by kind, as the clock read them ...
    samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    #: ... and the same samples at the reference host's speed (see ``probe``).
    paired: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    #: Seconds per speed probe, one reading per batch.
    probes: list[float] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: (messages, rows shipped) of every focus update: each cold update on
    #: the cold workloads, each insert update on the others.  On the sync
    #: engine the counts are exact and must all agree; the multi-process
    #: engines' cold runs are not (arrival order moves their round count),
    #: which is why the warm workloads count their delta-path updates.
    update_counts: list[tuple[float, float]] = field(default_factory=list)
    primary: list[Window] = field(default_factory=list)
    setup_windows: list[Window] = field(default_factory=list)
    #: Guards the counters the serving workload's client threads share.
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def fail(self, problem: str) -> None:
        """Count one failed operation (or failed check)."""
        with self.lock:
            self.failed += 1
            if len(self.problems) < _PROBLEM_LIMIT:
                self.problems.append(problem)

    def op(self, kind: str, action: Callable[[], object]) -> object | None:
        """Time one session operation (main thread only); one that raises is
        counted as failed, not propagated."""
        self.attempted += 1
        started = perf_counter()
        try:
            result = action()
        except (ReproError, OSError) as error:
            self.fail(f"{kind}: {type(error).__name__}: {error}")
            return None
        self.samples[kind].append(perf_counter() - started)
        return result

    def probe(self) -> None:
        """Read the host's speed and pair the samples taken since the last reading.

        Called between timed operations and once after the last.  A sample
        lies between two readings; it is divided by the slowdown the faster
        of the two shows (other tenants only ever add time to a reading).
        """
        reading = statistics.median(probe_seconds() for _ in range(_PROBES))
        with self.lock:
            previous = self.probes[-1] if self.probes else reading
            self.probes.append(reading)
            slowdown = min(previous, reading) / PROBE_REFERENCE_S
            for kind, values in self.samples.items():
                paired = self.paired[kind]
                paired.extend(value / slowdown for value in values[len(paired) :])

    def note_update(self, stats, previous=None) -> None:
        """Record the counts of the update that produced ``stats``."""
        messages, shipped = stats.total_messages, stats.total_tuples_transferred
        if previous is not None:  # the collector's totals are cumulative
            messages -= previous.total_messages
            shipped -= previous.total_tuples_transferred
        self.update_counts.append((messages, shipped))

    @property
    def setups(self) -> int:
        """Set-up repetitions: ``setup_s`` is the median of five, and only
        the full untraced pass reports it."""
        return 1 if self.reference or self.clock is not None else 5

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def percentile(values: Iterable[float], share: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples (a layer that never ran)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def probe_seconds() -> float:
    """CPU seconds one fixed pure-Python hash join takes right now.

    Thread CPU time, not wall: the probe is to say how fast the host runs,
    not how long this thread waited for the interpreter lock or a core.
    """
    started = time.thread_time()
    index: dict[str, list[tuple]] = {}
    for row in _PROBE_ROWS:
        index.setdefault(row[0], []).append(row)
    joined = {row + other[1:] for row in _PROBE_ROWS for other in index[row[0]]}
    elapsed = time.thread_time() - started
    if len(joined) != 8 * len(_PROBE_ROWS):
        raise ReproError(f"the speed probe joined {len(joined)} rows")
    return elapsed


# ------------------------------------------------------------ generated inputs


@dataclass(frozen=True)
class Site:
    """Where a script writes (a copy rule's exporter) and where it reads."""

    node: str
    relation: str
    arity: int
    root: str
    root_relation: str
    root_arity: int
    leaf: str
    scan: str

    def row(self, seed: int, tag: str, index: int) -> tuple[str, ...]:
        """A fresh row whose values depend only on the seed and its position."""
        return tuple(f"s{seed}-{tag}{index}-{i}" for i in range(self.arity))

    def point_query(self, key: str) -> str:
        """Constant-bound probe at the root for the row derived from ``key``."""
        variables = ", ".join(f"V{i}" for i in range(1, self.root_arity))
        return f'q({variables}) :- {self.root_relation}("{key}", {variables})'


def site_of(spec: ScenarioSpec, topology: TopologySpec) -> Site:
    node, relation, arity = feeding_site(spec)
    root = spec.super_peer or topology.nodes[0]
    root_relation = next(iter(spec.schemas[root]))
    leaf = topology.nodes[-1]
    leaf_relation = next(iter(spec.schemas[leaf]))
    return Site(
        node=node,
        relation=relation,
        arity=arity,
        root=root,
        root_relation=root_relation.name,
        root_arity=len(root_relation.attributes),
        leaf=leaf,
        scan=query_for(leaf_relation.name, len(leaf_relation.attributes)),
    )


#: Topology, records per node and engine settings of each workload.
SCENARIOS: dict[str, tuple[Callable[[], TopologySpec], int, dict]] = {
    "cold_tree": (lambda: tree_topology(5, 2), 10, {}),
    "cold_clique": (lambda: clique_topology(7), 10, {}),
    "warm_pooled": (
        lambda: tree_topology(5, 2), 10, {"transport": "pooled", "shards": 2}
    ),
    "warm_socket": (
        lambda: tree_topology(5, 2),
        10,
        {"transport": "socket", "pool": True, "shards": 2},
    ),
    # Served as posted: the front-end re-targets it onto a warm pooled engine.
    "serve_mixed": (lambda: tree_topology(4, 2), 5, {}),
}


def scenario(workload: str, seed: int) -> tuple[ScenarioSpec, Site]:
    """The workload's generated spec (the seed picks the records) and its site."""
    make_topology, records, settings = SCENARIOS[workload]
    topology = make_topology()
    spec = ScenarioSpec.from_topology(topology, records_per_node=records, seed=seed)
    if settings:
        spec = spec.with_(**settings)
    return spec, site_of(spec, topology)


# --------------------------------------------------------------------- oracle


def expected_ground(
    spec: ScenarioSpec,
    site: Site,
    inserted: Iterable[tuple] = (),
    deleted: Iterable[tuple] = (),
) -> dict:
    """The centralized fix-point of ``spec`` plus the script's changes.

    Deletions remove a base row at the write site and nothing else — the
    system has no retraction, rows already derived from it stay — and the
    naive re-run that follows re-derives whatever the remaining data still
    implies, which is the second closure below.
    """
    data = {
        node: {name: list(rows) for name, rows in relations.items()}
        for node, relations in spec.data.items()
    }
    data.setdefault(site.node, {}).setdefault(site.relation, []).extend(inserted)
    snapshot = centralized_update(spec.schemas, spec.rules, data).snapshot()
    deleted = frozenset(deleted)
    if deleted:
        snapshot[site.node][site.relation] = (
            snapshot[site.node][site.relation] - deleted
        )
        snapshot = centralized_update(spec.schemas, spec.rules, snapshot).snapshot()
    return ground_part(snapshot)


def check_fixpoint(run: Run, what: str, measured: Mapping, expected: Mapping) -> None:
    run.attempted += 1
    if ground_part(dict(measured)) != expected:
        run.fail(f"{what}: ground databases differ from the centralized fix-point")


# ---------------------------------------------------------- session operations


def insert_then_update(session: Session, site: Site, row: tuple):
    session.system.node(site.node).database.relation(site.relation).insert(row)
    return session.run("update")


def delete_then_update(session: Session, site: Site, row: tuple):
    session.system.node(site.node).database.delete(site.relation, row)
    return session.run("update")


def seeded_rows(session: Session) -> int:
    totals = session.system.stats.incremental_totals()
    return int(totals["repro_incremental_seed_rows_total"])


def traced_window(clock: LayerClock, mark, result, previous_stats=None) -> Window:
    """The window of the traced update that just returned ``result``."""
    seconds, calls = clock.since(mark)
    trace = result.extras.get("trace") or {}
    shipped = result.stats.total_tuples_transferred
    inserted = result.stats.total_tuples_inserted
    if previous_stats is not None:
        shipped -= previous_stats.total_tuples_transferred
        inserted -= previous_stats.total_tuples_inserted
    return Window(
        wall=result.wall_seconds,
        seconds=seconds,
        calls=calls,
        spans=span_totals(trace.get("spans", ())),
        shipped=shipped,
        inserted=inserted,
    )


# ------------------------------------------------------------- cold workloads


def run_cold(run: Run, budget: float) -> None:
    """Fresh spec and session → cold update, repeated.

    Every repetition is a complete set-up, so ``setup_s`` is sampled by each.
    """
    clock = run.clock
    traced = clock is not None
    spec, site = scenario(run.workload, run.seed)
    reference = expected_ground(spec, site)

    def repetition(run: Run, index: int) -> None:
        spec_started = perf_counter()
        spec, _ = scenario(run.workload, run.seed)
        setup_mark = clock.mark() if traced else None
        with Session.from_spec(spec, trace=traced) as session:
            run_mark = clock.mark() if traced else None
            cold_started = perf_counter()
            result = session.run("update")
            finished = perf_counter()
            run.attempted += 1
            run.samples["update"].append(finished - cold_started)
            run.samples["setup"].append(finished - spec_started)
            run.note_update(result.stats)
            check_fixpoint(run, f"cold update {index}", result.databases, reference)
            run.samples["cycle"].append(perf_counter() - spec_started)
            run.probe()
            if traced:
                run.primary.append(traced_window(clock, run_mark, result))
                seconds, calls = clock.since(setup_mark)
                run.setup_windows.append(
                    Window(wall=finished - cold_started, seconds=seconds, calls=calls)
                )

    # One repetition on a scratch record first: imports, lazy set-up, caches.
    repetition(Run(run.workload, run.seed, clock), 0)
    loop_started = perf_counter()
    index = 0
    while index < MIN_COLD_REPETITIONS or perf_counter() - loop_started < budget:
        index += 1
        repetition(run, index)


# ------------------------------------------------------------- warm workloads


def _open_warm(run: Run) -> tuple[ScenarioSpec, Site, Session]:
    """One set-up: spec, session, spawn and the first cold run (all timed)."""
    clock = run.clock
    traced = clock is not None
    started = perf_counter()
    spec, site = scenario(run.workload, run.seed)
    setup_mark = clock.mark() if traced else None
    session = Session.from_spec(spec, trace=traced)
    try:
        run_mark = clock.mark() if traced else None
        result = session.run("update")
        finished = perf_counter()
    except BaseException:
        session.close()
        raise
    run.attempted += 1
    run.samples["setup"].append(finished - started)
    run.probe()
    if traced:
        first = traced_window(clock, run_mark, result)
        seconds, calls = clock.since(setup_mark)
        run.setup_windows.append(
            Window(first.wall, seconds=seconds, calls=calls, spans=first.spans)
        )
    return spec, site, session


def run_warm(run: Run, budget: float) -> None:
    """Rounds of five [insert → update], one no-change update, one [delete → update]."""
    clock = run.clock
    traced = clock is not None
    for repetition in range(run.setups):
        spec, site, session = _open_warm(run)
        if repetition < run.setups - 1:
            session.close()
    inserted: list[tuple] = []
    deleted: list[tuple] = []
    try:
        loop_started = round_started = perf_counter()
        stats = session.snapshot_stats()
        while perf_counter() - loop_started < budget:
            row = site.row(run.seed, "w", len(inserted))
            before, previous = seeded_rows(session), stats
            mark = clock.mark() if traced else None
            result = run.op("update", lambda: insert_then_update(session, site, row))
            inserted.append(row)
            if result is not None:
                stats = result.stats
                run.counts["insert_runs"] += 1
                if seeded_rows(session) == before + 1:
                    run.counts["incremental_runs"] += 1
                else:
                    run.fail(f"insert {len(inserted)} did not take the delta path")
                run.note_update(stats, previous)
                if traced:
                    run.primary.append(traced_window(clock, mark, result, previous))
            if len(inserted) % ROUND == 0:
                deleted.append(row)
                for kind, action in (
                    ("noop", lambda: session.run("update")),
                    ("delete", lambda: delete_then_update(session, site, row)),
                ):
                    result = run.op(kind, action)
                    if result is not None:
                        stats = result.stats
                run.samples["cycle"].append(
                    (perf_counter() - round_started) / (ROUND + 2)
                )
                run.probe()
                round_started = perf_counter()
        run.probe()
        check_fixpoint(
            run,
            "after the warm script",
            session.databases(),
            expected_ground(spec, site, inserted, deleted),
        )
    finally:
        session.close()


# ---------------------------------------------------------- serving workload

_TENANT = "bench"


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Server:
    """``python -m repro serve`` as a subprocess on an ephemeral port."""

    def __init__(self) -> None:
        self.port = _free_port()
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--bind",
                f"127.0.0.1:{self.port}",
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def client(self) -> ServeClient:
        return ServeClient("127.0.0.1", self.port)

    def wait_ready(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            if self.process.poll() is not None:
                raise ReproError(f"server exited with {self.process.returncode}")
            try:
                with self.client() as client:
                    client.healthz()
                return
            except OSError:
                if time.monotonic() > deadline:
                    raise ReproError("server did not come up") from None
                time.sleep(0.01)

    def stop(self) -> None:
        """Ctrl-C the server — its one graceful exit: it drains every tenant's
        pool workers before leaving (SIGTERM would orphan them) — and wait."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
        self.process.wait()


def _tenant_counters(client: ServeClient) -> tuple[int, int]:
    """(messages, rows shipped) of the tenant so far, from ``/metrics``."""
    messages = shipped = 0
    for line in client.metrics().splitlines():
        if f'tenant="{_TENANT}"' not in line:
            continue
        name, _, value = line.rpartition(" ")
        if name.startswith("repro_messages_total{"):
            messages += int(float(value))
        elif name.startswith("repro_node_tuples_received_total{"):
            shipped += int(float(value))
    return messages, shipped


def _serve_call(run: Run, kind: str, action: Callable[[], dict]) -> dict | None:
    """One closed-loop request: 429/503 count as failed, then are retried."""
    started = perf_counter()
    while True:
        with run.lock:
            run.attempted += 1
            run.counts["requests"] += 1
        try:
            document = action()
        except ServeError as error:
            if error.status in (429, 503):
                with run.lock:
                    run.counts["rejected"] += 1
                run.fail(f"{kind}: refused with {error.status} {error.code}")
                time.sleep(error.retry_after or 0.05)
                continue
            run.fail(f"{kind}: {error}")
            return None
        except OSError as error:
            run.fail(f"{kind}: {type(error).__name__}: {error}")
            return None
        elapsed = perf_counter() - started
        with run.lock:
            run.samples[kind].append(elapsed)
            run.samples[kind + "_overhead"].append(
                elapsed - float(document["wall_seconds"])
            )
        return document


def _serve_client(
    run: Run, server: Server, site: Site, client_id: int, deadline: float, rows: list
) -> None:
    with server.client() as client:
        cycle = 0
        while perf_counter() < deadline:
            row = site.row(run.seed, f"c{client_id}x", cycle)
            cycle += 1
            cycle_started = perf_counter()
            changes = {site.node: {site.relation: [list(row)]}}
            outcome = _serve_call(
                run, "update", lambda: client.update(_TENANT, inserts=changes)
            )
            if outcome is None:
                continue
            with run.lock:
                rows.append(row)
                run.counts["insert_runs"] += 1
                run.counts["incremental_runs"] += outcome["mode"] == "incremental"
            if outcome["mode"] != "incremental":
                run.fail(f"insert {row[0]} ran in mode {outcome['mode']}")
            for _ in range(2):
                answer = _serve_call(
                    run,
                    "query",
                    lambda: client.query(_TENANT, site.root, site.point_query(row[0])),
                )
                if answer is not None and answer["count"] != 1:
                    run.fail(f"point query for {row[0]} returned {answer['count']} rows")
            _serve_call(run, "query", lambda: client.query(_TENANT, site.leaf, site.scan))
            with run.lock:
                run.samples["cycle"].append((perf_counter() - cycle_started) / 4)


def _collect_events(stream, run: Run) -> None:
    """Reader of the tenant's event channel: one window per incremental run."""
    try:
        for event in stream:
            if event.get("type") == "run" and event.get("mode") == "incremental":
                window = Window(
                    wall=float(event["wall_seconds"]),
                    spans=span_totals(event.get("spans", ())),
                )
                with run.lock:
                    run.primary.append(window)
    except (OSError, ReproError, ValueError):
        return  # the channel is closed under the reader when the loop ends


def run_serve(run: Run, budget: float) -> None:
    """Two closed-loop HTTP clients: [insert, 2 point queries, 1 scan] cycles."""
    traced = run.clock is not None
    spec, site = scenario(run.workload, run.seed)
    document = json.loads(spec.dump_json())
    server = None
    try:
        for repetition in range(run.setups):
            started = perf_counter()
            server = Server()
            server.wait_ready()
            with server.client() as client:
                client.create_tenant(_TENANT, document)
                finished = perf_counter()
                run.attempted += 1
                run.samples["setup"].append(finished - started)
            run.probe()
            if repetition < run.setups - 1:
                server.stop()

        stream = reader = None
        if traced:
            stream = EventStream("127.0.0.1", server.port, _TENANT)
            # Daemonic: a reader wedged on a dead socket must not hold the exit.
            reader = threading.Thread(
                target=_collect_events, args=(stream, run), daemon=True
            )
            reader.start()
        rows: list[tuple] = []
        with server.client() as client:
            messages_before, shipped_before = _tenant_counters(client)
        loop_started = perf_counter()
        clients = [
            threading.Thread(
                target=_serve_client,
                args=(run, server, site, client_id, loop_started + budget, rows),
            )
            for client_id in range(SERVE_CLIENTS)
        ]
        for thread in clients:
            thread.start()
        while any(thread.is_alive() for thread in clients):
            run.probe()
            time.sleep(0.1)
        for thread in clients:
            thread.join()
        run.probe()
        if stream is not None:
            stream.close()
            reader.join(timeout=10)

        with server.client() as client:
            # Only the loop's insert updates sent messages since the counters
            # were read (queries are local), and every one sends the same.
            messages, shipped = _tenant_counters(client)
            updates = max(1, run.counts["insert_runs"])
            run.update_counts.append(
                ((messages - messages_before) / updates, (shipped - shipped_before) / updates)
            )
            measured = {
                node: {
                    relation.name: frozenset(
                        tuple(answer)
                        for answer in client.query(
                            _TENANT,
                            node,
                            query_for(relation.name, len(relation.attributes)),
                        )["answers"]
                    )
                    for relation in schema
                }
                for node, schema in spec.schemas.items()
            }
        check_fixpoint(
            run, "after the serving loop", measured, expected_ground(spec, site, rows)
        )
    finally:
        if server is not None:
            server.stop()


WORKLOADS: dict[str, Callable[[Run, float], None]] = {
    "cold_tree": run_cold,
    "cold_clique": run_cold,
    "warm_pooled": run_warm,
    "warm_socket": run_warm,
    "serve_mixed": run_serve,
}


# ---------------------------------------------------------- recorded requests


def protocol_costs(site: Site, seed: int) -> dict[str, float]:
    """Median cost, in µs, of the front-end's parse/render on one update request.

    Direct calls on the request a client of this seed would send — the
    serving layers' share of ``serve.update_overhead_ms_p50`` without a
    socket in between.
    """
    changes = {"inserts": {site.node: {site.relation: [list(site.row(seed, "p", 0))]}}}
    body = json.dumps(changes).encode("utf-8")
    raw = (
        f"POST /tenants/{_TENANT}/update HTTP/1.1\r\n"
        "Host: 127.0.0.1\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1") + body
    response = HttpResponse.json(
        200, {"tenant": _TENANT, "phase": "update", "mode": "incremental"}
    )
    parse, render, parse_body = [], [], []

    async def measure() -> None:
        for _ in range(200):
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            started = perf_counter()
            request = await read_request(reader)
            parse.append(perf_counter() - started)
            started = perf_counter()
            parse_changes(request.json())
            parse_body.append(perf_counter() - started)
            started = perf_counter()
            render_response(response, keep_alive=True)
            render.append(perf_counter() - started)

    asyncio.run(measure())
    return {
        "serve.http_parse_us": median(parse) * 1e6,
        "serve.http_render_us": median(render) * 1e6,
        "serve.parse_changes_us": median(parse_body) * 1e6,
    }


# -------------------------------------------------------------------- metrics


def peak_rss_mb() -> float:
    """This process's peak RSS plus its largest waited-for descendant's (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def timings(run: Run, samples: Mapping[str, list[float]]) -> dict[str, float]:
    """The timing metrics of ``samples``: the run's paired samples, or its raw ones.

    ``ops_per_s`` is what the closed loop sustains: the script's clients over
    the median of a cycle's seconds per operation (a cold repetition; a warm
    round of seven; one client's insert, two point queries and scan).
    """
    clients = SERVE_CLIENTS if run.workload == "serve_mixed" else 1
    return {
        "setup_s": median(samples["setup"]),
        "update_ms_p50": median(samples["update"]) * 1e3,
        "ops_per_s": clients / median(samples["cycle"]),
    }


def end_to_end(run: Run) -> dict[str, float]:
    """The gated end-to-end metrics of an untraced pass (BENCHMARK.json's names)."""
    counts = set(run.update_counts)
    if run.workload.startswith("cold_") and len(counts) != 1:
        run.fail(f"cold updates disagree on their counts: {sorted(counts)}")
    return {
        **timings(run, run.paired),
        "messages_per_update": median(m for m, _ in run.update_counts),
        "rows_shipped_per_update": median(r for _, r in run.update_counts),
        "peak_rss_mb": peak_rss_mb(),
    }


def extras(run: Run) -> dict[str, float]:
    """End-to-end metrics printed and compared but outside the driver's gate.

    The gate wants every metric from every workload: deletes are part of the
    warm scripts only, queries of the serving one, and a p90 needs ten
    samples beyond it, which takes a hundred focus updates in a run.
    """
    if run.clock is not None:
        return {}
    found = {}
    if len(run.paired["update"]) >= 100:
        found["update_ms_p90"] = percentile(run.paired["update"], 0.9) * 1e3
    if run.paired["delete"]:
        found["delete_ms_p50"] = median(run.paired["delete"]) * 1e3
    if run.paired["query"]:
        found["query_ms_p50"] = median(run.paired["query"]) * 1e3
        found["query_ms_p90"] = percentile(run.paired["query"], 0.9) * 1e3
    return found


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    run: Run, reference: Run, site_costs: Mapping[str, float]
) -> dict[str, float]:
    """The per-layer metrics of a traced pass next to its untraced reference.

    Layer times are medians, over the traced focus operations, of the layer's
    self time inside that operation; a layer the workload never enters reads
    0 (on the warm and serving workloads the joins run in worker processes,
    whose time is the tracer's ``worker_chase`` span).
    """
    windows, setups, clock = run.primary, run.setup_windows, run.clock

    def layer_s(key: str, source: list[Window] = windows) -> float:
        return median(window.seconds.get(key, 0.0) for window in source)

    def calls(key: str) -> int:
        return sum(window.calls.get(key, 0) for window in windows)

    def span_ms(name: str, source: list[Window] = windows) -> float:
        return median(window.spans.get(name, 0.0) for window in source) * 1e3

    sharded_setups = [w for w in setups if w.calls.get("sharding.run_phase")]
    first_run = median(
        w.wall - w.seconds.get("sharding.plan", 0.0) - w.seconds.get("sharding.spawn", 0.0)
        for w in sharded_setups
    )
    requests = run.counts["requests"]
    return {
        "database.evaluate_s": layer_s("database.evaluate"),
        "database.evaluate_calls": median(
            w.calls.get("database.evaluate", 0) for w in windows
        ),
        "database.bindings_per_call": _ratio(
            calls("database.evaluate.yielded"), calls("database.evaluate")
        ),
        "database.chase_s": layer_s("database.chase"),
        "database.chase_new_ratio": _ratio(
            calls("database.chase.new"), calls("database.chase.offered")
        ),
        "core.fragment_for_s": layer_s("core.fragment_for"),
        "core.fragment_evals_per_join": _ratio(
            calls("core.fragment_for"), calls("core.join_fragments")
        ),
        "core.join_fragments_s": layer_s("core.join_fragments"),
        "core.handler_s": layer_s("core.handler"),
        "core.rows_shipped_per_row_inserted": _ratio(
            sum(w.shipped for w in windows), sum(w.inserted for w in windows)
        ),
        "core.incremental_share": _ratio(
            run.counts["incremental_runs"], run.counts["insert_runs"]
        ),
        "network.size_estimate_s": layer_s("network.size_estimate"),
        "network.transport_s": layer_s("network.transport"),
        "stats.record_s": layer_s("stats.record"),
        "api.from_spec_s": layer_s("api.from_spec", setups),
        "analysis.preflight_s": layer_s("analysis.preflight", setups),
        "sharding.plan_s": layer_s("sharding.plan", setups),
        "sharding.spawn_s": layer_s("sharding.spawn", setups),
        "sharding.first_run_s": first_run,
        "sharding.noop_run_ms_p50": median(run.samples["noop"]) * 1e3,
        "sharding.sync_ms_p50": span_ms("sync"),
        "sharding.run_phase_ms_p50": median(clock.durations["sharding.run_phase"]) * 1e3,
        "sharding.ship_ms_p50": span_ms("ship", setups),
        "sharding.quiescence_ms_p50": span_ms("quiescence"),
        "sharding.collect_ms_p50": span_ms("collect"),
        "sharding.worker_chase_ms_p50": span_ms("worker_chase"),
        "sharding.merge_ms_p50": span_ms("merge"),
        "serve.update_overhead_ms_p50": median(run.samples["update_overhead"]) * 1e3,
        "serve.query_overhead_ms_p50": median(run.samples["query_overhead"]) * 1e3,
        **site_costs,
        "serve.rejected_share": _ratio(run.counts["rejected"], requests),
        "obs.trace_overhead_ratio": _ratio(
            median(run.paired["update"]), median(reference.paired["update"])
        ),
        "obs.layer_coverage_share": median(
            _ratio(sum(w.seconds.values()), w.wall) for w in windows
        ),
    }


# --------------------------------------------------------------------- passes


def measure(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one workload in this process and return its result record."""
    workload = WORKLOADS[name]
    if not traced:
        run = Run(name, seed)
        workload(run, seconds)
        metrics = end_to_end(run)
        passes = [run]
    else:
        # The untraced reference first: wrappers, once installed, stay.
        reference = Run(name, seed, reference=True)
        workload(reference, 0.35 * seconds)
        clock = LayerClock()
        clock.install()
        run = Run(name, seed, clock)
        workload(run, 0.65 * seconds)
        metrics = per_layer(
            run, reference, protocol_costs(scenario(name, seed)[1], seed)
        )
        passes = [reference, run]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "correct": all(p.correct for p in passes),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted if attempted else 1.0,
        "metrics": metrics,
        "extras": extras(run),
        "host": {
            "slowdown": median(run.probes) / PROBE_REFERENCE_S,
            "as_clocked": timings(run, run.samples),
        },
        "samples": {
            kind: len(values) for kind, values in sorted(run.samples.items()) if values
        },
        "problems": [problem for p in passes for problem in p.problems],
    }
