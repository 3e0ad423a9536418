"""Network topologies and the coordination rules connecting heterogeneous peers.

The paper's experiments cover "trees, layered acyclic graphs, and cliques";
this module generates those (plus chains, stars and seeded random DAGs, used
by additional tests and ablations) as :class:`TopologySpec` objects — a list
of peers and *import edges* ``(importer, exporter)`` meaning "importer has a
coordination rule whose body is at exporter".

:func:`coordination_rules_for` then turns a topology into concrete
coordination rules between the DBLP schema variants assigned to the peers:
for every import edge, the importer gets one rule per relation of its own
variant, whose body reconstructs the publication tuple from the exporter's
variant (a join when the exporter is normalised).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.coordination.rule import CoordinationRule, NodeId
from repro.database.parser import parse_atom
from repro.database.query import Atom, Variable
from repro.errors import ReproError
from repro.workloads.dblp import SCHEMA_VARIANTS, variant_for_node_index

ImportEdge = tuple[NodeId, NodeId]


@dataclass(frozen=True)
class TopologySpec:
    """A P2P topology: peers, import edges and a nominal depth."""

    name: str
    nodes: tuple[NodeId, ...]
    edges: tuple[ImportEdge, ...]
    depth: int
    variant_by_node: dict[NodeId, str] = field(default_factory=dict, compare=False)

    @property
    def node_count(self) -> int:
        """Number of peers."""
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        """Number of import edges."""
        return len(self.edges)

    def variant_of(self, node: NodeId) -> str:
        """The schema variant assigned to ``node``."""
        if node in self.variant_by_node:
            return self.variant_by_node[node]
        return variant_for_node_index(self.nodes.index(node))


def _node_name(index: int) -> NodeId:
    return f"n{index:02d}"


def tree_topology(depth: int, fanout: int = 2) -> TopologySpec:
    """A complete tree of the given depth; parents import from their children.

    Depth 0 is a single node.  The root is node ``n00`` and accumulates every
    record of the network after the update — the configuration whose execution
    time the paper reports as linear in the depth.
    """
    if depth < 0 or fanout < 1:
        raise ReproError("tree needs depth >= 0 and fanout >= 1")
    nodes: list[NodeId] = []
    edges: list[ImportEdge] = []
    index = 0
    current_level = [_node_name(index)]
    nodes.extend(current_level)
    index += 1
    for _level in range(depth):
        next_level: list[NodeId] = []
        for parent in current_level:
            for _child in range(fanout):
                child = _node_name(index)
                index += 1
                nodes.append(child)
                next_level.append(child)
                edges.append((parent, child))
        current_level = next_level
    return TopologySpec("tree", tuple(nodes), tuple(edges), depth)


def chain_topology(length: int) -> TopologySpec:
    """A chain of ``length`` nodes; each node imports from the next one."""
    if length < 1:
        raise ReproError("chain needs at least one node")
    nodes = tuple(_node_name(i) for i in range(length))
    edges = tuple((nodes[i], nodes[i + 1]) for i in range(length - 1))
    return TopologySpec("chain", nodes, edges, length - 1)


def star_topology(leaves: int) -> TopologySpec:
    """A star: the hub imports from every leaf."""
    if leaves < 1:
        raise ReproError("star needs at least one leaf")
    hub = _node_name(0)
    leaf_nodes = tuple(_node_name(i + 1) for i in range(leaves))
    edges = tuple((hub, leaf) for leaf in leaf_nodes)
    return TopologySpec("star", (hub, *leaf_nodes), edges, 1)


def layered_topology(depth: int, width: int = 2, seed: int = 0) -> TopologySpec:
    """A layered acyclic graph: ``depth + 1`` layers of ``width`` nodes.

    Every node of layer *k* imports from a random non-empty subset of layer
    *k+1* (deterministic in ``seed``), so data flows from the deepest layer to
    layer 0.  A node may import from the whole next layer, as in the paper's
    small graphs, so the edge count is quadratic in ``width``.
    """
    if depth < 0 or width < 1:
        raise ReproError("layered topology needs depth >= 0 and width >= 1")
    rng = random.Random(seed)
    layers: list[list[NodeId]] = []
    index = 0
    for _layer in range(depth + 1):
        layer = [_node_name(index + offset) for offset in range(width)]
        index += width
        layers.append(layer)
    nodes = tuple(node for layer in layers for node in layer)
    edges: list[ImportEdge] = []
    for upper, lower in zip(layers, layers[1:]):
        for importer in upper:
            count = rng.randint(1, len(lower))
            for exporter in rng.sample(lower, count):
                edges.append((importer, exporter))
    return TopologySpec("layered", nodes, tuple(edges), depth)


def clique_topology(size: int) -> TopologySpec:
    """A clique: every node imports from every other node."""
    if size < 1:
        raise ReproError("clique needs at least one node")
    nodes = tuple(_node_name(i) for i in range(size))
    edges = tuple(
        (importer, exporter)
        for importer in nodes
        for exporter in nodes
        if importer != exporter
    )
    return TopologySpec("clique", nodes, edges, size - 1)


def random_topology(size: int, edge_probability: float, seed: int = 0) -> TopologySpec:
    """A random acyclic topology: node *i* may import from any node *j > i*."""
    if size < 1:
        raise ReproError("random topology needs at least one node")
    if not 0.0 <= edge_probability <= 1.0:
        raise ReproError("edge probability must be in [0, 1]")
    rng = random.Random(seed)
    nodes = tuple(_node_name(i) for i in range(size))
    edges = []
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < edge_probability:
                edges.append((nodes[i], nodes[j]))
    return TopologySpec("random", nodes, tuple(edges), size - 1)


#: Builders the :func:`topology_family` dispatcher knows, by family name.
TOPOLOGY_FAMILIES = ("tree", "chain", "star", "layered", "clique", "random")


def topology_family(name: str, size: int, *, seed: int = 0) -> TopologySpec:
    """Build a member of a named topology family with ``size``-ish nodes.

    One seeded entry point for sweeps that iterate families by name (the
    chaos suite, CI seed matrices): the result is deterministic in
    ``(name, size, seed)``.  Families whose shape is fully determined by the
    size (trees, chains, stars, cliques) accept and ignore the seed, so
    callers can thread one seed uniformly.  Sizes are met exactly for
    chains, stars, cliques and random graphs; trees and layered graphs
    round to the nearest complete shape.
    """
    if size < 1:
        raise ReproError("topology_family needs size >= 1")
    if name == "tree":
        return tree_topology(max(0, (size + 1).bit_length() - 2), fanout=2)
    if name == "chain":
        return chain_topology(size)
    if name == "star":
        return star_topology(max(1, size - 1))
    if name == "layered":
        width = 3 if size >= 6 else 2
        return layered_topology(
            max(1, round(size / width) - 1), width=width, seed=seed
        )
    if name == "clique":
        return clique_topology(size)
    if name == "random":
        return random_topology(size, edge_probability=0.3, seed=seed)
    raise ReproError(
        f"unknown topology family {name!r}; expected one of "
        f"{', '.join(TOPOLOGY_FAMILIES)}"
    )


# ----------------------------------------------------------------- rule builder

#: Body atoms (textual) reconstructing the publication tuple for each variant.
_BODY_BY_VARIANT = {
    "wide": ["pub(K, TI, AU, YR, VE)"],
    "split": ["article(K, TI, YR, VE)", "authored(K, AU)"],
    "norm": ["work(K, TI)", "venue_of(K, VE, YR)", "author_of(K, AU)"],
}

#: Head atoms (textual) per relation of each variant.
_HEADS_BY_VARIANT = {
    "wide": ["pub(K, TI, AU, YR, VE)"],
    "split": ["article(K, TI, YR, VE)", "authored(K, AU)"],
    "norm": ["work(K, TI)", "venue_of(K, VE, YR)", "author_of(K, AU)"],
}


def coordination_rules_for(spec: TopologySpec) -> list[CoordinationRule]:
    """Build the coordination rules of a topology over the DBLP schema variants.

    One rule per (import edge, head relation of the importer's variant); the
    rule body reconstructs the full publication tuple from the exporter's
    variant, so normalised exporters require joins on the publication key.
    """
    rules: list[CoordinationRule] = []
    for importer, exporter in spec.edges:
        importer_variant = spec.variant_of(importer)
        exporter_variant = spec.variant_of(exporter)
        if importer_variant not in SCHEMA_VARIANTS:
            raise ReproError(f"unknown variant {importer_variant!r} for {importer!r}")
        if exporter_variant not in SCHEMA_VARIANTS:
            raise ReproError(f"unknown variant {exporter_variant!r} for {exporter!r}")
        body_atoms = [parse_atom(text) for text in _BODY_BY_VARIANT[exporter_variant]]
        body = [(exporter, atom) for atom in body_atoms]
        for head_index, head_text in enumerate(_HEADS_BY_VARIANT[importer_variant]):
            head = parse_atom(head_text)
            rule_id = f"{importer}<-{exporter}/{head_index}"
            rules.append(CoordinationRule(rule_id, importer, head, body))
    return rules


def single_relation_rules_for(
    spec: TopologySpec, relation: str = "item", arity: int = 2
) -> list[CoordinationRule]:
    """Homogeneous-schema rules: every node has one ``relation`` of ``arity``.

    Used by micro-benchmarks and property tests where schema heterogeneity is
    noise: every import edge becomes one rule copying the relation.
    """
    variables = [Variable(f"X{i}") for i in range(arity)]
    atom = Atom(relation, variables)
    rules = []
    for importer, exporter in spec.edges:
        rule_id = f"{importer}<-{exporter}"
        rules.append(CoordinationRule(rule_id, importer, atom, [(exporter, atom)]))
    return rules
