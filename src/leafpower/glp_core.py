"""Simple graphs, GLP(q) certificates, the parity edge rule, verification
and integer normalization of certificates."""

from __future__ import annotations

import itertools
import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from . import exactlp
from .errors import (
    CertificateLabelMismatch,
    InternalError,
    MalformedGraphError,
    MalformedTreeError,
)
from .rational import format_rational, parse_rational
from .tree_metric import WeightedTree, _distance_row, _leaf_masks, _leaf_paths, _lp_weights


class SimpleGraph:
    """Finite undirected simple graph with named vertices."""

    __slots__ = ("_vertices", "_edges", "_adj")

    def __init__(self, vertices: Iterable, edges: Iterable[tuple] = ()):
        self._vertices = tuple(sorted(set(vertices), key=str))
        vset = set(self._vertices)
        adj = {v: set() for v in self._vertices}
        edge_set = set()
        for u, v in edges:
            if u == v:
                raise MalformedGraphError(f"self-loop at {u!r}")
            if u not in vset or v not in vset:
                raise MalformedGraphError(f"edge ({u!r},{v!r}) uses unknown vertex")
            edge_set.add(frozenset((u, v)))
            adj[u].add(v)
            adj[v].add(u)
        self._edges = frozenset(edge_set)
        self._adj = adj

    @property
    def vertices(self) -> tuple:
        return self._vertices

    @property
    def edges(self) -> frozenset:
        return self._edges

    def edge_list(self) -> list:
        """Edges as sorted ``[u, v]`` pairs (canonical order)."""
        return sorted(
            (sorted(e, key=str) for e in self._edges),
            key=lambda p: (str(p[0]), str(p[1])),
        )

    def has_edge(self, u, v) -> bool:
        return v in self._adj[u]

    def neighbors(self, v) -> set:
        return set(self._adj[v])

    def __len__(self):
        return len(self._vertices)

    def __eq__(self, other):
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __hash__(self):
        return hash((self._vertices, self._edges))

    def __repr__(self):
        return f"SimpleGraph({len(self._vertices)} vertices, {len(self._edges)} edges)"

    def to_json_dict(self) -> dict:
        return {"vertices": list(self._vertices), "edges": self.edge_list()}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SimpleGraph":
        vertices, edges = data["vertices"], [tuple(e) for e in data["edges"]]
        # only strings survive a JSON round trip: leaf labels come back as
        # object keys, which are strings
        for name in itertools.chain(vertices, *edges):
            if not isinstance(name, str):
                raise MalformedGraphError(f"vertex name {name!r} is not a string")
        return cls(vertices, edges)

    @classmethod
    def from_json(cls, text: str) -> "SimpleGraph":
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class ThresholdSequence:
    """Strictly increasing positive rational thresholds."""

    thresholds: tuple

    def __post_init__(self):
        values = tuple(parse_rational(t) for t in self.thresholds)
        if not values:
            raise MalformedTreeError("threshold sequence must be non-empty")
        if values[0] <= 0:
            raise MalformedTreeError("thresholds must be positive")
        for a, b in zip(values, values[1:]):
            if a >= b:
                raise MalformedTreeError("thresholds must be strictly increasing")
        object.__setattr__(self, "thresholds", values)

    @property
    def order(self) -> int:
        return len(self.thresholds)

    def __iter__(self):
        return iter(self.thresholds)


@dataclass(frozen=True)
class GlpCertificate:
    """A weighted tree plus thresholds: the membership witness for GLP(q)."""

    tree: WeightedTree
    thresholds: ThresholdSequence

    @property
    def order(self) -> int:
        return self.thresholds.order

    def to_json_dict(self) -> dict:
        return {
            "tree": self.tree.to_json_dict(),
            "thresholds": [format_rational(t) for t in self.thresholds],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "GlpCertificate":
        return cls(
            WeightedTree.from_json_dict(data["tree"]),
            ThresholdSequence(tuple(parse_rational(t) for t in data["thresholds"])),
        )

    @classmethod
    def from_json(cls, text: str) -> "GlpCertificate":
        return cls.from_json_dict(json.loads(text))


def graph_from_certificate(cert: GlpCertificate) -> SimpleGraph:
    """The graph induced by the parity edge rule.

    (u, v) is an edge iff d(u, v) <= theta_i for an odd number of the
    thresholds (comparison is closed: a distance exactly equal to a
    threshold counts).
    """
    labels = cert.tree.labels()
    matrix = cert.tree.distance_matrix()
    thresholds = cert.thresholds.thresholds
    edges = []
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            d = matrix[(a, b)]
            # the thresholds at or above d, as they strictly increase
            if (len(thresholds) - bisect_left(thresholds, d)) % 2 == 1:
                edges.append((a, b))
    return SimpleGraph(labels, edges)


def verify_certificate(graph: SimpleGraph, cert: GlpCertificate) -> bool:
    """True iff cert's tree/thresholds induce exactly ``graph``.

    A leaf-label set differing from the graph's vertex set raises
    CertificateLabelMismatch rather than returning False, so callers can
    tell a wrong witness from a wrong wiring.
    """
    leaf_set = set(cert.tree.labels())
    vertex_set = set(graph.vertices)
    if leaf_set != vertex_set:
        missing = sorted(vertex_set - leaf_set, key=str)
        extra = sorted(leaf_set - vertex_set, key=str)
        raise CertificateLabelMismatch(
            f"leaf labels != graph vertices (missing {missing!r}, extra {extra!r})"
        )
    return graph_from_certificate(cert) == graph


@dataclass(frozen=True)
class IntegerizeResult:
    """Outcome of integerization; ``basic`` marks a margin-1 vertex solution,
    for which the Hadamard weight bound |E|^{|E|/2} is guaranteed.

    All margins are 1 exactly when every threshold is tied to a distance
    or lies above them all.  The LP runs in x = w - 1 (``_distance_row``),
    so its polyhedron {x >= 0, A x >= b - A 1} is the separation polyhedron
    {w >= 1, A w >= b} translated by 1, and a translation maps vertices to
    vertices.  ``find_feasible_point`` returns a basic feasible solution, a
    vertex in x, so its weights are already a vertex of the separation
    polyhedron and no rank test is needed."""

    certificate: GlpCertificate
    basic: bool


def integerize_certificate(cert: GlpCertificate) -> GlpCertificate:
    return integerize_certificate_info(cert).certificate


def integerize_certificate_info(cert: GlpCertificate) -> IntegerizeResult:
    """Rewrite a certificate with positive integer weights and thresholds.

    The induced graph is preserved bit-exactly, and so is the strict/equal
    pattern of the merged sequence of leaf-pair distances and thresholds.
    With d_0 < d_1 < ... the distinct distances, a threshold is tied to
    some d_i, or it is the j-th of the free[i] thresholds in gap i, below
    d_i and above d_(i-1) (the top gap lies above every distance).  The
    new weights are a basic feasible point of: equal distances stay equal,
    d_0 >= free[0] + 2 when free[0] > 0, and d_i - d_(i-1) >= free[i] + 1.
    A tied threshold takes the new d_i, a free one the new d_(i-1) + j
    (0 + j in gap 0).
    """
    tree = cert.tree
    labels = tree.labels()
    edges = tree.edges
    m = len(edges)
    masks = _leaf_masks([(u, v) for u, v, _ in edges], [tree.vertex_of(a) for a in labels])
    paths = _leaf_paths(masks, len(labels))
    matrix = tree.distance_matrix()

    # group leaf pairs by exact distance value
    by_value: dict = {}
    for (i, j), path in paths.items():
        by_value.setdefault(matrix[(labels[i], labels[j])], []).append(path)
    values = sorted(by_value)
    groups = [by_value[d] for d in values]

    # a threshold's anchor (a, j) places it at floor[a] + j, where floor
    # lists 0, d_0, d_1, ...: a tie to d_i is (i + 1, 0), the j-th free
    # threshold of gap i is (i, j)
    free = [0] * (len(values) + 1)
    anchors = []
    for t in cert.thresholds:
        i = bisect_left(values, t)
        if i < len(values) and values[i] == t:
            anchors.append((i + 1, 0))
        else:
            free[i] += 1
            anchors.append((i, free[i]))

    constraints = [_distance_row(other, group[0], exactlp.EQ, 0) for group in groups for other in group[1:]]
    if groups and free[0]:
        constraints.append(_distance_row(groups[0][0], (), exactlp.GE, free[0] + 2))
    for i in range(1, len(groups)):
        constraints.append(_distance_row(groups[i][0], groups[i - 1][0], exactlp.GE, free[i] + 1))

    solution = exactlp.find_feasible_point(m, constraints)
    if solution is None:
        # a scaled copy of the input weights satisfies every constraint
        raise InternalError("integerize: separation system of a valid certificate is infeasible")

    weights = _lp_weights(solution, m)
    denom_lcm = math.lcm(*(w.denominator for w in weights))
    weights = [w * denom_lcm for w in weights]
    if not all(w.denominator == 1 and w >= 1 for w in weights):
        raise InternalError("integerize: scaled weights are not integers >= 1")

    floor = [0, *(sum(weights[k] for k in group[0]) for group in groups)]
    # the new distances must leave each gap room for its free thresholds
    if any(low + f >= high for low, f, high in zip(floor, free, floor[1:])):
        raise InternalError("integerize: gap margin too small for thresholds")
    new_tree = WeightedTree(
        [(u, v, w) for (u, v, _), w in zip(edges, weights)],
        tree.leaf_labels,
        vertices=tree.vertices,
    )
    new_cert = GlpCertificate(new_tree, ThresholdSequence(tuple(floor[a] + j for a, j in anchors)))
    if graph_from_certificate(new_cert) != graph_from_certificate(cert):
        raise InternalError("integerize: the integer certificate induces another graph")

    return IntegerizeResult(new_cert, not any(free[:-1]))


def is_chordal(graph: SimpleGraph) -> bool:
    """Perfect-elimination-ordering test via maximum cardinality search."""
    vertices = list(graph.vertices)
    n = len(vertices)
    if n <= 3:
        return True
    weight = {v: 0 for v in vertices}
    order = []
    numbered = set()
    for _ in range(n):
        v = max((u for u in vertices if u not in numbered), key=lambda u: (weight[u], str(u)))
        order.append(v)
        numbered.add(v)
        for nb in graph.neighbors(v):
            if nb not in numbered:
                weight[nb] += 1
    order.reverse()  # elimination order: order[0] eliminated first
    position = {v: i for i, v in enumerate(order)}
    for i, v in enumerate(order):
        later = [u for u in graph.neighbors(v) if position[u] > i]
        if not later:
            continue
        pivot = min(later, key=lambda u: position[u])
        for u in later:
            if u != pivot and not graph.has_edge(pivot, u):
                return False
    return True


def complement(graph: SimpleGraph) -> SimpleGraph:
    vertices = graph.vertices
    edges = [
        (u, v)
        for i, u in enumerate(vertices)
        for v in vertices[i + 1 :]
        if not graph.has_edge(u, v)
    ]
    return SimpleGraph(vertices, edges)


def disjoint_union(g1: SimpleGraph, g2: SimpleGraph) -> SimpleGraph:
    """Disjoint union with copy tags: vertex "a" becomes "a#1" / "a#2"."""
    def tag(v, k):
        return f"{v}#{k}"

    vertices = [tag(v, 1) for v in g1.vertices] + [tag(v, 2) for v in g2.vertices]
    edges = [(tag(u, 1), tag(v, 1)) for u, v in g1.edge_list()]
    edges += [(tag(u, 2), tag(v, 2)) for u, v in g2.edge_list()]
    return SimpleGraph(vertices, edges)
