"""Simple graphs, GLP(q) certificates, the parity edge rule, verification
and integer normalization of certificates."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import exactlp
from .errors import (
    CertificateLabelMismatch,
    InternalError,
    MalformedGraphError,
    MalformedTreeError,
)
from .rational import format_rational, parse_rational
from .tree_metric import WeightedTree, _leaf_masks, _leaf_paths


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

    def degree(self, v) -> int:
        return len(self._adj[v])

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
        return cls(data["vertices"], [tuple(e) for e in data["edges"]])

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
            count = sum(1 for t in thresholds if d <= t)
            if count % 2 == 1:
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
    for which the Hadamard weight bound |E|^{|E|/2} is guaranteed."""

    certificate: GlpCertificate
    basic: bool


def integerize_certificate(cert: GlpCertificate) -> GlpCertificate:
    return integerize_certificate_info(cert).certificate


def integerize_certificate_info(cert: GlpCertificate) -> IntegerizeResult:
    """Rewrite a certificate with positive integer weights and thresholds.

    The induced graph is preserved bit-exactly, and so is the strict/equal
    pattern of the merged sequence of leaf-pair distances and thresholds.
    The new weights come from a basic feasible point of the margin-1
    separation system over the edge weights (equal distances stay equal);
    thresholds are then re-placed as integers inside the preserved gaps.
    """
    tree = cert.tree
    labels = tree.labels()
    edges = tree.edges
    m = len(edges)
    if m == 0:
        # one-leaf tree; thresholds just need to be distinct positive ints
        new_thr = ThresholdSequence(tuple(Fraction(k + 1) for k in range(cert.order)))
        return IntegerizeResult(GlpCertificate(tree, new_thr), True)

    masks = _leaf_masks([(u, v) for u, v, _ in edges], [tree.vertex_of(a) for a in labels])
    paths = _leaf_paths(masks, len(labels))
    matrix = tree.distance_matrix()

    # group leaf pairs by exact distance value
    by_value: dict = {}
    for (i, j), path in paths.items():
        by_value.setdefault(matrix[(labels[i], labels[j])], []).append(path)
    values = sorted(by_value)
    thresholds = list(cert.thresholds.thresholds)

    # how many thresholds sit strictly inside each gap (or below everything)
    def gap_margin(low_value, high_value) -> int:
        inside = sum(1 for t in thresholds if (low_value is None or low_value < t) and t < high_value)
        # k thresholds strictly inside a gap need k+1 units of room
        return inside + 1

    constraints = []
    for k in range(m):
        constraints.append(({k: 1}, exactlp.GE, 1))
    basic_margins = True
    # equalities within each value group
    for value in values:
        group = by_value[value]
        rep = group[0]
        for other in group[1:]:
            constraints.append((_path_diff(other, rep), exactlp.EQ, 0))
    # margins between consecutive distinct values
    below = gap_margin(None, values[0]) if any(t < values[0] for t in thresholds) else 0
    if below:
        # room for integer thresholds in [1, first value)
        constraints.append((_path_coeffs(by_value[values[0]][0]), exactlp.GE, below + 1))
        basic_margins = False
    for low, high in zip(values, values[1:]):
        margin = gap_margin(low, high)
        if margin > 1:
            basic_margins = False
        constraints.append(
            (_path_diff(by_value[high][0], by_value[low][0]), exactlp.GE, margin)
        )

    solution = exactlp.find_feasible_point(m, constraints)
    if solution is None:
        # a scaled copy of the input weights satisfies every constraint
        raise InternalError("integerize: separation system of a valid certificate is infeasible")

    denom_lcm = math.lcm(*(f.denominator for f in solution))
    weights = [f * denom_lcm for f in solution]
    if not all(w.denominator == 1 and w >= 1 for w in weights):
        raise InternalError("integerize: scaled weights are not integers >= 1")

    new_tree = WeightedTree(
        [(u, v, w) for (u, v, _), w in zip(edges, weights)],
        tree.leaf_labels,
        vertices=tree.vertices,
    )
    new_matrix = new_tree.distance_matrix()
    new_value_of = {}
    for value in values:
        path = by_value[value][0]
        new_value_of[value] = sum(weights[k] for k in path)

    new_thresholds = _replace_thresholds(thresholds, values, new_value_of)
    new_cert = GlpCertificate(new_tree, ThresholdSequence(tuple(new_thresholds)))
    if graph_from_certificate(new_cert) != graph_from_certificate(cert):
        raise InternalError("integerize: the integer certificate induces another graph")

    basic = basic_margins and _is_vertex(solution, constraints, m)
    return IntegerizeResult(new_cert, basic)


def _replace_thresholds(thresholds, values, new_value_of):
    """Place integer thresholds preserving their position among the values."""
    new_thresholds = []
    for t in thresholds:
        if t in new_value_of:  # tied to a distance: keep the tie
            new_thresholds.append(new_value_of[t])
            continue
        below = [v for v in values if v < t]
        above = [v for v in values if v > t]
        lo = new_value_of[below[-1]] if below else Fraction(0)
        # consecutive thresholds inside the same gap step up by 1
        candidate = lo + 1
        while new_thresholds and candidate <= new_thresholds[-1]:
            candidate = new_thresholds[-1] + 1
        if above:
            hi = new_value_of[above[0]]
            if candidate >= hi:
                raise InternalError("integerize: gap margin too small for thresholds")
        new_thresholds.append(candidate)
    return new_thresholds


def _is_vertex(solution, constraints, num_vars) -> bool:
    point = list(solution)
    tight_rows = []
    for coeffs, rel, rhs in constraints:
        value = sum(Fraction(c) * point[i] for i, c in coeffs.items())
        if rel == exactlp.EQ or value == Fraction(rhs):
            row = [0] * num_vars
            for i, c in coeffs.items():
                row[i] = c
            tight_rows.append(row)
    for i, x in enumerate(point):
        if x == 0:
            row = [0] * num_vars
            row[i] = 1
            tight_rows.append(row)
    if not tight_rows:
        return num_vars == 0
    return exactlp.rational_rank(tight_rows) == num_vars


def _path_coeffs(path):
    return {k: 1 for k in path}


def _path_diff(path_hi, path_lo):
    coeffs = {k: 1 for k in path_hi}
    for k in path_lo:
        coeffs[k] = coeffs.get(k, 0) - 1
    return {k: c for k, c in coeffs.items() if c}


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
