"""Stateful test: every update reaches the fix-point an independent oracle computes.

Each example draws a weakly acyclic network of three to six peers holding
``p(2)``, ``q(2)`` and ``t(3)``, with copy, transforming and two-source
rules, cycles included, and existential variables or comparisons but never
both (step A6 skips a firing a row already there covers, so a comparison
that read a null could make the ground part depend on firing order); an
engine row of ``tests/engines.py``, with a drawn delivery order or shard
count; and a propagation policy.  It then plays changes on a warm session
and checks, with the chase of ``tests/fixpoint_oracle.py``, that

* a whole update closes every peer, satisfies every rule and leaves every
  peer the ground closure of the databases it started from; an update from
  one origin leaves the origin the closure under the rules that target it
  (``docs/incremental.md`` says why no more);
* no peer holds a ground row that the closure of every row held at a run's
  start or end lacks (nothing is retracted: after a delete the two bounds
  differ, while rows only grow they are one);
* after every step the ground databases equal a ``sync`` replay's whose
  runs are all naive (``run_naive``); a whole update right after one
  changes nothing of the replay's;
* after a discovery every peer's maximal paths equal those a system
  freshly built with the rules of the moment discovers;
* every ``Change`` the engine is handed is the set difference of
  ``tests/sync_oracle.py``; completion times never go back, and a run that
  added rows sent messages.

``feed_discover_update`` hands a discovery, then an update, fresh rows on a
session primed for the delta path: a pending change dropped or replaced at
the discovery's start shows.  A failure names the network as ``ScenarioSpec``
JSON and the script played, the arguments of :func:`replay`.
"""

import re
from itertools import count
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    rule,
    run_state_machine_as_test,
)

from repro.analysis.positions import is_weakly_acyclic
from repro.api.session import Session
from repro.api.spec import ScenarioSpec
from repro.coordination.rule import rule_from_text
from repro.core.fixpoint import all_nodes_closed, satisfies_all_rules
from repro.database.nulls import is_null
from repro.database.query import Constant
from repro.database.schema import RelationSchema
from repro.network.latency import UniformLatency
from engines import ENGINES, run_naive
import fixpoint_oracle
from fixpoint_oracle import OPERATORS, chase, ground
from sync_oracle import (
    assert_ships_what_the_oracle_ships,
    set_difference_delta,
    snapshot_of,
)

RELATIONS = {"p": 2, "q": 2, "t": 3}
VARIABLES = ("X", "Y", "Z")
values = st.integers(min_value=0, max_value=2)
picks = st.integers(min_value=0, max_value=63)
row_seeds = st.lists(st.tuples(values, values, values), min_size=1, max_size=3)
#: Row changes; "clear", "replace" and "swap" rewrite the relation.
CHANGES = ("insert", "delete", "put_back", "transient", "clear", "replace", "swap")
#: The settings that turn a spec's row into the constant-latency simulator.
SYNC = dict(transport="sync", shards=None, latency=None)


def atom(node, relation, terms):
    return f"{node}: {relation}({', '.join(terms)})"


@st.composite
def rule_texts(draw, rule_id, peers, existential, kind=None):
    """A copy, a transforming rule (repeated variables, constants) or a
    two-source join, as ``id: body -> head`` text."""
    kind = kind or draw(st.sampled_from(["copy", "transform", "join"]))
    target, *sources = draw(st.permutations(peers))[: 3 if kind == "join" else 2]
    names = [draw(st.sampled_from(sorted(RELATIONS))) for _source in sources]
    if kind == "copy":
        terms = VARIABLES[: RELATIONS[names[0]]]
        copied = atom(sources[0], names[0], terms), atom(target, names[0], terms)
        return f"{rule_id}: {copied[0]} -> {copied[1]}"
    if kind == "join":
        # Joined through Y: X and U are read on one side only, Z and V on the
        # other, so only the join can apply a comparison between them.
        sides = [side[: RELATIONS[name]] for side, name in zip(("XYU", "YZV"), names)]
    else:
        arity = RELATIONS[names[0]] - 1
        rest = st.sampled_from([*VARIABLES, *VARIABLES, "1"])
        first = draw(st.sampled_from(VARIABLES))
        sides = [[first, *draw(st.lists(rest, min_size=arity, max_size=arity))]]
    literals = [atom(*parts) for parts in zip(sources, names, sides)]
    sides = [{term for term in side if term.isalpha()} for side in sides]
    operator = st.sampled_from(sorted(OPERATORS))
    if kind == "join" and not existential:  # every such join compares its sides
        left, right = sides[0] - sides[1], sides[1] - sides[0]
        left, right = (draw(st.sampled_from(sorted(side))) for side in (left, right))
        literals.append(f"{left} {draw(operator)} {right}")
    elif not existential:
        operand = st.sampled_from(sorted(sides[0]))
        comparison = st.tuples(operand, operator, operand | values.map(str))
        literals += [" ".join(c) for c in draw(st.lists(comparison, max_size=1))]
    head = draw(st.sampled_from(sorted(RELATIONS)))
    terms = st.sampled_from(sorted(set().union(*sides)) + ["E"] * existential)
    terms = draw(st.lists(terms, min_size=RELATIONS[head], max_size=RELATIONS[head]))
    return f"{rule_id}: {', '.join(literals)} -> {atom(target, head, terms)}"


def parse(text):
    rule_id, body = text.split(": ", 1)
    return rule_from_text(rule_id, body)


@st.composite
def networks(draw):
    """A weakly acyclic spec whose first rules are a copy and a join, and two
    rules a script may add to it."""
    peers = "abcdef"[: draw(st.integers(3, 6))]
    existential = draw(st.booleans())
    texts = [
        draw(rule_texts(f"r{i}", peers, existential, kind))
        for i, kind in enumerate(["copy", "join"])
    ]
    for i in range(2, draw(st.integers(2, 7))):
        texts.append(draw(rule_texts(f"r{i}", peers, existential)))
    kept = []
    for text in texts:
        if is_weakly_acyclic([parse(t) for t in (*kept, text)]):
            kept.append(text)
    schema = [RelationSchema(n, VARIABLES[:arity]) for n, arity in RELATIONS.items()]
    rows = {
        name: st.sets(st.tuples(*[values] * arity), min_size=1, max_size=3)
        for name, arity in RELATIONS.items()
    }
    spec = ScenarioSpec.of(
        {peer: schema for peer in peers},
        kept,
        {peer: draw(st.fixed_dictionaries(rows)) for peer in peers},
        super_peer=peers[0],
        propagation=draw(st.sampled_from(["once", "per_path"])),
    )
    return spec, [draw(rule_texts(f"s{i}", peers, existential)) for i in range(2)]


def apply(system, step):
    """Play one step other than a run on ``system``."""
    kind, *arguments = step
    if kind == "add_rule":
        system.add_rule(parse(arguments[0]))
    elif kind == "remove_rule":
        system.remove_rule(arguments[0])
    elif kind == "add_relation":
        database = system.node(arguments[0]).database
        if "extra" not in database:
            database.add_relation(RelationSchema("extra", ["k", "v"]))
        database.insert("extra", (0, 0))
    elif kind in ("delete", "put_back"):
        relation = system.node(arguments[0]).database.relation(arguments[1])
        relation.delete(tuple(arguments[2]))
        if kind == "put_back":
            relation.insert(tuple(arguments[2]))
    else:
        database = system.node(arguments[0]).database
        name, rows = arguments[1], [tuple(row) for row in arguments[2]]
        relation = database.relation(name)
        if kind == "swap":
            # A relation object put in behind the database's back reports
            # itself, like a write to the one it replaced.
            database._relations[name] = relation = relation.copy()
        elif kind in ("clear", "replace"):
            relation.clear()
        elif kind == "transient":
            rows = [row for row in rows if row not in relation]
        relation.insert_many(rows)
        if kind == "transient":
            for row in rows:
                relation.delete(row)


def replay(spec_json, script):
    """Play ``script`` on the network ``spec_json`` as the machine does."""
    machine = OracleMachine()
    machine.start(spec_json)
    try:
        for step in script:
            machine.play(step)
    finally:
        machine.session.close()


class OracleMachine(RuleBasedStateMachine):
    #: Shard hosts the socket rows run on; None spawns hosts per session.
    hosts = None

    @initialize(
        network=networks(),
        engine=st.sampled_from(list(ENGINES)),
        seed=st.integers(0, 2**16),
        shards=st.sampled_from([1, 2, 4]),
    )
    def open(self, network, engine, seed, shards):
        spec, self.spares = network
        row = dict(ENGINES[engine])
        if "latency" in row:
            row["latency"] = UniformLatency(0, 1, seed)
        if "shards" in row:
            row["shards"] = shards
        self.start(spec.with_(**row).dump_json(indent=None))
        assert self.session.engine.name == engine.replace("sync-seeded", "sync")

    def start(self, spec_json):
        self.spec_json, self.script, self.fresh = spec_json, [], count(100)
        spec = ScenarioSpec.load_json(spec_json)
        if spec.transport == "socket" and self.hosts:
            spec = spec.with_(hosts=self.hosts)
        self.session = Session.from_spec(spec)
        self.system = self.session.system
        # Loaded again: systems built from one spec share its schema
        # objects, so a relation added to one would show in the other.
        self.reference = ScenarioSpec.load_json(spec_json).with_(**SYNC).build_system()
        #: The set-difference oracle's copy of what the session last read, and
        #: the relations rewritten since; every row held at a run's start or
        #: end; the replay's databases if the last step was a whole update.
        self.known, self.rewritten = snapshot_of(self.system), set()
        self.held, self.settled, self.clock = {}, None, 0.0
        machine, run = self, self.session.engine.run

        def checked_run(system, phase, origins=None, change=None):
            if change is not None:  # None: a first run, nothing to compare
                oracle = set_difference_delta(system, *machine.known)
                assert_ships_what_the_oracle_ships(
                    system, change, oracle, machine.known[1], machine.rewritten
                )
            return run(system, phase, origins, change)

        self.session.engine.run = checked_run

    def teardown(self):
        try:
            self.feed_discover_update(0, True)
        finally:
            self.session.close()

    def play(self, step):
        self.script.append(step)
        settled, self.settled = self.settled, None
        try:
            if step[0] == "run":
                self.run(*step[1:], settled)
            else:
                apply(self.system, step)
                apply(self.reference, step)
                if step[0] in ("clear", "replace", "swap"):
                    self.rewritten.add((step[1], step[2]))
            reference = ground(self.reference.databases())
            assert ground(self.session.databases()) == reference
        except AssertionError as error:
            script = f"replay({self.spec_json!r}, {self.script!r})"
            raise AssertionError(f"{error}\n{script}") from error

    def run(self, phase, origins, settled):
        rules, before = tuple(self.system.registry), self.session.databases()
        hold(self.held, before)
        result = self.session.run(phase, origins=origins)
        run_naive(self.reference, phase, origins)
        self.known, self.rewritten = snapshot_of(self.system), set()
        # A worker's clock restarts from the coordinator's simulated time.
        assert result.completion_time >= self.clock
        self.clock = result.completion_time
        if phase == "discovery":
            assert paths(self.system) == fresh_paths(self.spec_json, rules, origins)
            return
        if result.tuples_added:
            stats = result.stats
            assert stats.total_messages and stats.total_tuples_inserted
            assert stats.simulated_time
        if origins is None:
            assert all_nodes_closed(self.system) and satisfies_all_rules(self.system)
            assert settled is None or settled == self.reference.databases()
            self.settled = self.reference.databases()
        inside = [r for r in rules if origins is None or r.target in origins]
        least, most = ground(chase(inside, before)), ground(chase(rules, self.held))
        after = ground(result.databases)
        for node in origins or after:
            assert within(least[node], after[node]), (node, "misses rows")
        for node in after:
            assert within(after[node], most[node]), (node, "holds rows no closure has")
        hold(self.held, result.databases)

    @rule(
        kind=st.sampled_from(CHANGES),
        node=picks,
        relation=picks,
        pick=picks,
        rows=row_seeds,
    )
    def change(self, kind, node, relation, pick, rows):
        node_id = sorted(self.system.nodes)[node % len(self.system.nodes)]
        database = self.system.node(node_id).database
        names = [r.name for r in database.relations()]
        name = names[relation % len(names)]
        if kind in ("delete", "put_back"):
            stored = database.relation(name)
            rows = sorted((r for r in stored if not any(map(is_null, r))), key=repr)
            if not rows:
                return
            payload = list(rows[pick % len(rows)])
        else:
            arity = database.relation(name).schema.arity
            payload = [] if kind == "clear" else [list(row[:arity]) for row in rows]
        self.play([kind, node_id, name, payload])

    @rule(node=picks)
    def add_relation(self, node):
        nodes = sorted(self.system.nodes)
        self.play(["add_relation", nodes[node % len(nodes)]])

    @rule(pick=picks)
    def add_rule(self, pick):
        text = self.spares[pick % len(self.spares)]
        rules = [*self.system.registry, parse(text)]
        if len({r.rule_id for r in rules}) == len(rules) and is_weakly_acyclic(rules):
            self.play(["add_rule", text])

    @rule(pick=picks)
    def remove_rule(self, pick):
        rule_ids = sorted(rule.rule_id for rule in self.system.registry)
        if len(rule_ids) > 1:
            self.play(["remove_rule", rule_ids[pick % len(rule_ids)]])

    @rule()
    def discovery(self):
        self.play(["run", "discovery", None])

    @rule()
    def update(self):
        self.play(["run", "update", None])

    @rule(node=picks)
    def update_from_one_origin(self, node):
        origin = sorted(self.system.nodes)[node % len(self.system.nodes)]
        self.play(["run", "update", [origin]])

    @rule(pick=picks, again=st.booleans())
    def feed_discover_update(self, pick, again):
        """On a primed session, insert a fresh row a one-atom rule with no
        comparison and no existential variable reads (the update must derive
        a new ground row from it), run a discovery, and if ``again`` insert a
        fresh row at the next peer; then update."""
        self.update()
        feeders = [
            rule
            for rule in sorted(self.system.registry, key=lambda rule: rule.rule_id)
            if len(rule.body) == 1
            and not (rule.comparisons or rule.existential_variables)
        ]
        if not feeders:
            return
        ((node_id, body),) = feeders[pick % len(feeders)].body
        fresh = {}
        row = [
            term.value
            if isinstance(term, Constant)
            else fresh.setdefault(term, next(self.fresh))
            for term in body.terms
        ]
        self.play(["insert", node_id, body.relation, [row]])
        self.discovery()
        if again:
            nodes = sorted(self.system.nodes)
            after = nodes[(nodes.index(node_id) + 1) % len(nodes)]
            self.play(["insert", after, "p", [[next(self.fresh)] * 2]])
        self.update()


def paths(system):
    return {name: node.state.maximal_paths() for name, node in system.nodes.items()}


def fresh_paths(spec_json, rules, origins):
    """The paths a system freshly built with ``rules`` discovers."""
    spec = ScenarioSpec.load_json(spec_json).with_(rules=rules, data={}, **SYNC)
    system = spec.build_system()
    run_naive(system, "discovery", origins)
    return paths(system)


def hold(held, databases):
    for node, relations in databases.items():
        for name, rows in relations.items():
            held.setdefault(node, {}).setdefault(name, set()).update(rows)


def within(small, large):
    return all(rows <= large.get(name, set()) for name, rows in small.items())


# A pass takes seconds; shrinking a failure may take Hypothesis's own cap of
# 300 s, and the stall guard must not cut the report short.
@pytest.mark.timeout(600)
def test_every_update_stays_between_the_oracle_bounds(shard_hosts):
    class OnTheTestHosts(OracleMachine):
        hosts = tuple(shard_hosts.addresses)

    run_state_machine_as_test(
        OnTheTestHosts,
        settings=settings(
            max_examples=30,
            stateful_step_count=12,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
        ),
    )


def test_the_oracle_imports_no_engine_code():
    source = Path(fixpoint_oracle.__file__).read_text(encoding="utf-8")
    imported = re.findall(r"^(?:from|import) (\S+)", source, re.MULTILINE)
    engine = re.compile(r"repro\.(core|baselines|database\.(evaluate|database))\b")
    assert [name for name in imported if engine.match(name)] == []


def test_a_printed_failure_replays():
    # X != Z reads both fragments, so only the join can apply it.
    relations = [RelationSchema(name, ["x", "y"]) for name in "pqr"]
    spec = ScenarioSpec.of(
        {peer: relations for peer in "abc"},
        ["m: a: p(X, Y), b: q(Y, Z), X != Z -> c: r(X, Z)"],
        {"a": {"p": [(1, 2), (3, 2)]}, "b": {"q": [(2, 1), (2, 3)]}},
        super_peer="a",
    )
    update, insert = ["run", "update", None], ["insert", "a", "p", [[2, 2]]]
    replay(spec.dump_json(indent=None), [update, insert, update])
