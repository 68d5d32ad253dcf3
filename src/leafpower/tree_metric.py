"""Exact weighted-tree metric core.

Trees carry positive rational edge weights and a distinguished set of
labeled leaves.  Everything here is exact: distances are Fractions, all
comparisons are strict rational comparisons, and no floating point is
used anywhere.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import (
    DegenerateTreeError,
    LabelNotFoundError,
    MalformedMetricError,
    MalformedTreeError,
)
from .rational import format_rational, parse_rational

VIOLATION = "VIOLATION"


def _walk(adj: Mapping, source):
    """Yield ``(vertex, parent)`` for each vertex reachable from ``source``
    other than ``source`` itself, in depth-first visiting order.

    ``adj`` maps a vertex to an iterable of its neighbours.  In a tree,
    ``parent`` is the neighbour on the path back to ``source``, so every
    vertex comes after its parent.
    """
    seen = {source}
    stack = [source]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
                yield v, u


def _distances(adj: Mapping, source) -> dict:
    """Distances from ``source`` in a tree whose ``adj`` maps a vertex to
    ``{neighbour: weight}``."""
    dist = {source: Fraction(0)}
    for v, u in _walk(adj, source):
        dist[v] = dist[u] + adj[u][v]
    return dist


def _leaf_masks(edges, leaves) -> list:
    """For each ``(u, v)`` of a tree's ``edges``, in order, the bitmask of
    the leaves on its far side from ``leaves[0]``; bit i is ``leaves[i]``.

    One walk from ``leaves[0]`` ORs each vertex's leaves into its parent's.
    A child's leaves are a subset of its parent's, so the far side of an
    edge is ``below[u] & below[v]``.
    """
    adj: dict = {leaves[0]: []}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    below = dict.fromkeys(adj, 0)
    for i, leaf in enumerate(leaves):
        below[leaf] = 1 << i
    for v, parent in reversed(list(_walk(adj, leaves[0]))):
        below[parent] |= below[v]
    return [below[u] & below[v] for u, v in edges]


def _leaf_paths(masks, n: int) -> dict:
    """Edge indices, ascending, on the path between leaves i and j, keyed
    by ``(i, j)`` for 0 <= i < j < n: edge k lies on that path exactly when
    bits i and j of its leaf mask ``masks[k]`` differ."""
    return {
        (i, j): tuple(k for k, m in enumerate(masks) if (m >> i ^ m >> j) & 1)
        for i, j in itertools.combinations(range(n), 2)
    }


class WeightedTree:
    """An immutable positively weighted tree with labeled leaves.

    ``edges`` is an iterable of ``(u, v, weight)``; ``leaf_labels`` maps
    external labels to degree-1 vertices.  A single labeled vertex with no
    edges is accepted as the degenerate one-leaf tree.
    """

    __slots__ = ("_adj", "_vertices", "_edges", "_labels", "_matrix", "_dist_from")

    def __init__(self, edges: Iterable[tuple], leaf_labels: Mapping, vertices=None):
        adj: dict = {}
        canon_edges = []
        for u, v, w in edges:
            w = parse_rational(w)
            if w <= 0:
                raise MalformedTreeError(f"edge ({u},{v}) has non-positive weight {w}")
            if u == v:
                raise MalformedTreeError(f"self-loop at {u}")
            adj.setdefault(u, {})
            adj.setdefault(v, {})
            if v in adj[u]:
                raise MalformedTreeError(f"duplicate edge ({u},{v})")
            adj[u][v] = w
            adj[v][u] = w
            canon_edges.append((u, v, w) if str(u) <= str(v) else (v, u, w))
        labels = dict(leaf_labels)
        for vertex in labels.values():
            adj.setdefault(vertex, {})
        if vertices is not None:
            for vertex in vertices:
                adj.setdefault(vertex, {})
        if not adj:
            raise MalformedTreeError("empty tree")
        if len(canon_edges) != len(adj) - 1:
            raise MalformedTreeError(
                f"{len(canon_edges)} edges on {len(adj)} vertices is not a tree"
            )
        if sum(1 for _ in _walk(adj, next(iter(adj)))) != len(adj) - 1:
            raise MalformedTreeError("edge set is not connected")
        if len(set(labels.values())) != len(labels):
            raise MalformedTreeError("leaf_labels is not injective")
        for vertex in labels.values():
            deg = len(adj[vertex])
            if deg != 1 and len(adj) > 1:
                raise MalformedTreeError(
                    f"labeled vertex {vertex!r} has degree {deg}, expected 1"
                )
        self._adj = adj
        self._vertices = tuple(sorted(adj, key=str))
        self._edges = tuple(sorted(canon_edges, key=lambda e: (str(e[0]), str(e[1]))))
        self._labels = labels
        self._matrix = None
        self._dist_from: dict = {}

    # -- basic accessors -------------------------------------------------

    @property
    def vertices(self) -> tuple:
        return self._vertices

    @property
    def edges(self) -> tuple:
        """Canonicalized ``(u, v, weight)`` triples."""
        return self._edges

    @property
    def leaf_labels(self) -> dict:
        return dict(self._labels)

    def labels(self) -> tuple:
        return tuple(sorted(self._labels, key=str))

    def degree(self, vertex) -> int:
        try:
            return len(self._adj[vertex])
        except KeyError:
            raise LabelNotFoundError(vertex) from None

    def neighbors(self, vertex) -> dict:
        return dict(self._adj[vertex])

    def vertex_of(self, label):
        try:
            return self._labels[label]
        except KeyError:
            raise LabelNotFoundError(label) from None

    # -- distances -------------------------------------------------------

    def vertex_distance(self, u, v) -> Fraction:
        if u not in self._adj:
            raise LabelNotFoundError(u)
        if v not in self._adj:
            raise LabelNotFoundError(v)
        dist = self._dist_from.get(u)
        if dist is None:  # one walk per source, kept for later queries
            dist = self._dist_from[u] = _distances(self._adj, u)
        return dist[v]

    def distance(self, a, b) -> Fraction:
        """Exact distance between two labeled leaves."""
        return self.vertex_distance(self.vertex_of(a), self.vertex_of(b))

    def distance_matrix(self) -> dict:
        """All leaf-to-leaf distances as ``{(a, b): Fraction}`` (cached)."""
        if self._matrix is None:
            labels = self.labels()
            matrix = {}
            for a in labels:
                dist = _distances(self._adj, self._labels[a])
                for b in labels:
                    matrix[(a, b)] = dist[self._labels[b]]
            self._matrix = matrix
        return self._matrix

    def diameter(self) -> Fraction:
        if len(self._labels) < 2:
            raise DegenerateTreeError("diameter requires at least 2 leaves")
        matrix = self.distance_matrix()
        return max(matrix.values())

    # -- derived trees ---------------------------------------------------

    def scaled(self, factor) -> "WeightedTree":
        factor = parse_rational(factor)
        if factor <= 0:
            raise MalformedTreeError("scaling factor must be positive")
        return WeightedTree(
            [(u, v, w * factor) for u, v, w in self._edges],
            self._labels,
            vertices=self._vertices,
        )

    def relabeled(self, mapping: Mapping) -> "WeightedTree":
        """Rename leaf labels through ``mapping`` (labels absent are kept)."""
        labels = {mapping.get(lbl, lbl): v for lbl, v in self._labels.items()}
        return WeightedTree(self._edges, labels, vertices=self._vertices)

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self._vertices),
            "edges": [[u, v, format_rational(w)] for u, v, w in self._edges],
            "leaves": {str(lbl): v for lbl, v in sorted(self._labels.items(), key=lambda kv: str(kv[0]))},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "WeightedTree":
        return cls(
            [(u, v, parse_rational(w)) for u, v, w in data["edges"]],
            dict(data["leaves"]),
            vertices=data.get("vertices"),
        )

    @classmethod
    def from_json(cls, text: str) -> "WeightedTree":
        return cls.from_json_dict(json.loads(text))

    def __repr__(self):
        return f"WeightedTree({len(self._vertices)} vertices, {len(self._labels)} leaves)"

    def __eq__(self, other):
        if not isinstance(other, WeightedTree):
            return NotImplemented
        return self._edges == other._edges and self._labels == other._labels

    def __hash__(self):
        return hash((self._edges, tuple(sorted(self._labels.items(), key=lambda kv: str(kv[0])))))


@dataclass(frozen=True)
class QuartetVerdict:
    """Outcome of the four-point check on an ordered quartet (x, y, z, t).

    ``sums`` holds the three pair sums
    ``(d(x,y)+d(t,z), d(x,z)+d(t,y), d(y,z)+d(t,x))``; ``case_id`` is 1-4,
    or the string ``VIOLATION`` when the unique maximum sum is attained
    only once (i.e. the metric is not a tree metric on these points).
    """

    case_id: int | str
    sums: tuple


def distance(tree: WeightedTree, a, b) -> Fraction:
    return tree.distance(a, b)


def diameter(tree: WeightedTree) -> Fraction:
    return tree.diameter()


def _metric_lookup(d: Mapping, points):
    def get(a, b):
        if a == b:
            val = d.get((a, b), Fraction(0))
            if parse_rational(val) != 0:
                raise MalformedMetricError(f"nonzero diagonal at {a!r}")
            return Fraction(0)
        fwd, bwd = d.get((a, b)), d.get((b, a))
        if fwd is None and bwd is None:
            raise MalformedMetricError(f"missing distance for ({a!r}, {b!r})")
        if fwd is not None and bwd is not None and parse_rational(fwd) != parse_rational(bwd):
            raise MalformedMetricError(f"asymmetric distance for ({a!r}, {b!r})")
        return parse_rational(fwd if fwd is not None else bwd)

    return get


def four_point_classify(d: Mapping, points=None) -> QuartetVerdict:
    """Classify an ordered 4-point metric into the four tree-metric cases.

    ``d`` maps ordered pairs to rationals (either orientation is accepted but
    must agree).  If ``points`` is omitted the four points are inferred from
    the keys and taken in sorted order.
    """
    if points is None:
        pts = sorted({p for key in d for p in key}, key=str)
    else:
        pts = list(points)
    if len(pts) != 4 or len(set(pts)) != 4:
        raise MalformedMetricError(f"need exactly 4 distinct points, got {pts!r}")
    x, y, z, t = pts
    get = _metric_lookup(d, pts)
    s1 = get(x, y) + get(t, z)
    s2 = get(x, z) + get(t, y)
    s3 = get(y, z) + get(t, x)
    sums = (s1, s2, s3)
    if s1 == s2 == s3:
        return QuartetVerdict(4, sums)
    if s1 == s2 > s3:
        return QuartetVerdict(1, sums)
    if s1 == s3 > s2:
        return QuartetVerdict(2, sums)
    if s2 == s3 > s1:
        return QuartetVerdict(3, sums)
    return QuartetVerdict(VIOLATION, sums)


def classify_leaf_quartet(tree: WeightedTree, x, y, z, t) -> QuartetVerdict:
    """Four-point classification of four labeled leaves of a tree."""
    m = tree.distance_matrix()
    d = {(a, b): m[(a, b)] for a in (x, y, z, t) for b in (x, y, z, t)}
    return four_point_classify(d, (x, y, z, t))


def check_split_lemma(tree: WeightedTree, a1, a2, b1, b2, x, y) -> bool:
    """True iff the split-lemma hypotheses hold for these six leaves.

    Hypotheses: x is strictly closer to both a's than to both b's, and y is
    strictly closer to both b's than to both a's.  Whenever this returns
    True the cross-sum equality d(a1,b1)+d(a2,b2) = d(a1,b2)+d(a2,b1) is
    guaranteed exactly; tests assert it.
    """
    d = tree.distance
    hyp_x = max(d(a1, x), d(a2, x)) < min(d(b1, x), d(b2, x))
    if not hyp_x:
        return False
    return max(d(b1, y), d(b2, y)) < min(d(a1, y), d(a2, y))


def check_twins_lemma(tree: WeightedTree, a1, a2, b, c, x) -> bool:
    """True iff the twins-lemma hypotheses hold for these five leaves.

    Hypotheses: d(a2,x) < d(a1,x) < d(b,x) < d(c,x) together with
    d(a1,b) < d(a2,b) and d(a1,c) < d(a2,c).  The guaranteed conclusion is
    d(a2,b) < d(a2,c).
    """
    d = tree.distance
    if not (d(a2, x) < d(a1, x) < d(b, x) < d(c, x)):
        return False
    return d(a1, b) < d(a2, b) and d(a1, c) < d(a2, c)


def contract_degree_two(tree: WeightedTree) -> WeightedTree:
    """Merge away unlabeled degree-2 vertices, preserving all leaf distances."""
    adj = {v: dict(tree.neighbors(v)) for v in tree.vertices}
    labeled = set(tree.leaf_labels.values())
    changed = True
    while changed:
        changed = False
        for v in list(adj):
            if v in labeled or len(adj[v]) != 2:
                continue
            (a, wa), (b, wb) = adj[v].items()
            del adj[a][v]
            del adj[b][v]
            del adj[v]
            adj[a][b] = wa + wb
            adj[b][a] = wa + wb
            changed = True
    edges = []
    for u in adj:
        for v, w in adj[u].items():
            if str(u) < str(v) or (str(u) == str(v) and u < v):
                edges.append((u, v, w))
    return WeightedTree(edges, tree.leaf_labels, vertices=list(adj))


def restrict_to_leaves(tree: WeightedTree, subset) -> WeightedTree:
    """Minimal Steiner subtree spanning ``subset``, degree-two contracted."""
    subset = list(subset)
    if len(subset) < 2:
        raise DegenerateTreeError("restriction needs at least 2 leaves")
    keep_vertices = {tree.vertex_of(lbl) for lbl in subset}
    adj = {v: dict(tree.neighbors(v)) for v in tree.vertices}
    # repeatedly strip unneeded leaves of the host tree
    pruned = True
    while pruned:
        pruned = False
        for v in list(adj):
            if v not in keep_vertices and len(adj[v]) <= 1:
                for nb in adj[v]:
                    del adj[nb][v]
                del adj[v]
                pruned = True
    edges = []
    for u in adj:
        for v, w in adj[u].items():
            if str(u) < str(v) or (str(u) == str(v) and u < v):
                edges.append((u, v, w))
    labels = {lbl: tree.vertex_of(lbl) for lbl in subset}
    return contract_degree_two(WeightedTree(edges, labels, vertices=list(adj)))
