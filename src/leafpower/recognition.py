"""Brute-force, desk-scale recognition oracles.

GLP(q) membership, k-leaf-power membership and leaf rank, decided by
exhaustive enumeration of unrooted series-reduced leaf-labeled topologies
combined with exact rational linear feasibility.  Everything is exact;
answers are decisions, not heuristics.

Search layout per graph: topologies are enumerated in a fixed canonical
order (leaf-insertion order); topologies equivalent under an automorphism
of the input graph are collapsed to their orbit representative.  For each
topology every leaf pair gets a threshold-region assignment consistent
with the parity edge rule, pruned by an exact four-point-condition
consistency check on quartets, and surviving assignments are decided by a
margin-1 exact LP over edge weights and thresholds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from . import exactlp
from .errors import CapacityError, CeilingExceededError, InternalError
from .glp_core import (
    GlpCertificate,
    SimpleGraph,
    ThresholdSequence,
    graph_from_certificate,
    integerize_certificate,
    is_chordal,
)
from .tree_metric import WeightedTree, _leaf_masks, _leaf_paths

TOPOLOGY_LEAF_CAP = 9  # n! leaf placements explode beyond this at desk scale


@dataclass
class RecognitionLimits:
    """Size caps for the brute-force searches (configuration, not constants)."""

    max_leaves_q1: int = 8
    max_leaves_q2: int = 8
    max_leaves_q3: int = 6
    max_leaves_other: int = 5
    leaf_rank_ceiling: int = 64

    def cap_for(self, q: int) -> int:
        caps = {1: self.max_leaves_q1, 2: self.max_leaves_q2, 3: self.max_leaves_q3}
        return caps.get(q, self.max_leaves_other)


DEFAULT_LIMITS = RecognitionLimits()


@dataclass(frozen=True)
class TopologyCatalog:
    """All series-reduced unrooted topologies on n labeled leaves.

    Topologies are edge tuples over integer vertex ids: leaves are
    0..n-1, internal vertices are n, n+1, ...  No two entries are equal
    under leaf-label-preserving isomorphism.
    """

    n_leaves: int
    topologies: tuple


def iter_topologies(n: int) -> Iterator[tuple]:
    """Yield every series-reduced topology on leaves 0..n-1 exactly once.

    Generation is by leaf insertion: leaf k is added to each topology on
    leaves 0..k-1 either by subdividing an edge or by attaching to an
    existing internal vertex.  Removing the highest leaf inverts the step
    uniquely, so no duplicates are produced.
    """
    if n < 1:
        raise ValueError("need at least 1 leaf")
    if n == 1:
        yield ()
        return
    adj: dict[int, set[int]] = {0: {1}, 1: {0}}
    next_internal = [n]

    def edges_snapshot():
        return tuple(
            sorted((u, v) for u in adj for v in adj[u] if u < v)
        )

    def rec(k):
        if k == n:
            yield edges_snapshot()
            return
        # attach leaf k to an existing internal vertex
        for v in list(adj):
            if v >= n:  # internal
                adj[v].add(k)
                adj[k] = {v}
                yield from rec(k + 1)
                del adj[k]
                adj[v].discard(k)
        # subdivide an edge and hang leaf k on the new internal vertex
        w = next_internal[0]
        next_internal[0] += 1
        for u, v in [(u, v) for u in adj for v in adj[u] if u < v]:
            adj[u].discard(v)
            adj[v].discard(u)
            adj[w] = {u, v, k}
            adj[u].add(w)
            adj[v].add(w)
            adj[k] = {w}
            yield from rec(k + 1)
            del adj[k]
            del adj[w]
            adj[u].discard(w)
            adj[v].discard(w)
            adj[u].add(v)
            adj[v].add(u)
        next_internal[0] -= 1

    yield from rec(2)


def enumerate_topologies(n: int, max_internal: int | None = None) -> TopologyCatalog:
    """Complete duplicate-free catalog; n is capped at desk scale."""
    if n > TOPOLOGY_LEAF_CAP:
        raise CapacityError(f"topology enumeration supports n <= {TOPOLOGY_LEAF_CAP}, got {n}")
    topologies = []
    for edges in iter_topologies(n):
        internals = {v for e in edges for v in e if v >= n}
        if max_internal is not None and len(internals) > max_internal:
            continue
        topologies.append(edges)
    return TopologyCatalog(n, tuple(topologies))


# ---------------------------------------------------------------------------
# graph automorphisms and topology orbit representatives


def graph_automorphisms(graph: SimpleGraph) -> list[tuple[int, ...]]:
    """All vertex permutations (as index tuples) preserving adjacency."""
    vertices = graph.vertices
    n = len(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    rows = [0] * n
    for u, v in graph.edge_list():
        i, j = index[u], index[v]
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    # refine candidates by degree to keep the n! scan cheap
    degree = [bin(r).count("1") for r in rows]
    autos = []
    for perm in itertools.permutations(range(n)):
        ok = True
        for i in range(n):
            if degree[i] != degree[perm[i]]:
                ok = False
                break
            mapped = 0
            row = rows[i]
            j = 0
            while row:
                if row & 1:
                    mapped |= 1 << perm[j]
                row >>= 1
                j += 1
            if mapped != rows[perm[i]]:
                ok = False
                break
        if ok:
            autos.append(perm)
    return autos


def _split_key(edges: tuple, n: int) -> tuple:
    """Nontrivial splits of a topology as canonical leaf bitmasks: the
    leaf masks of its internal edges, which follow the n pendant edges in
    the sorted edge tuples of ``iter_topologies``."""
    return tuple(sorted(_leaf_masks(edges, range(n))[n:]))


def _permute_mask_tables(perms, n):
    """For each permutation, the table mapping a leaf mask m to its image."""
    tables = []
    for perm in perms:
        table = [0]
        for j in range(n):  # extend the masks over bits 0..j-1 by bit j
            table += [m | 1 << perm[j] for m in table]
        tables.append(table)
    return tables


def _is_orbit_representative(key, tables, full):
    for table in tables:
        remapped = []
        for m in key:
            r = table[m]
            if r & 1:
                r = full & ~r
            remapped.append(r)
        remapped.sort()
        if tuple(remapped) < key:
            return False
    return True


def _orbit_topologies(graph: SimpleGraph):
    """The graph's edges as leaf-index pairs, and an iterator over the
    topologies of ``iter_topologies`` on its vertices, one per orbit.

    An automorphism of the graph maps a topology that works onto one that
    works, so of each orbit only the topology with the least split key is
    yielded.
    """
    n = len(graph)
    if n > TOPOLOGY_LEAF_CAP:
        raise CapacityError(f"{n} vertices exceeds the topology cap of {TOPOLOGY_LEAF_CAP}")
    index = {v: i for i, v in enumerate(graph.vertices)}
    edge_pairs = {tuple(sorted((index[u], index[v]))) for u, v in graph.edge_list()}
    autos = [p for p in graph_automorphisms(graph) if p != tuple(range(n))]
    tables = _permute_mask_tables(autos, n)
    full = (1 << n) - 1

    def representatives():
        for edges in iter_topologies(n):
            if not tables or _is_orbit_representative(_split_key(edges, n), tables, full):
                yield edges

    return edge_pairs, representatives()


# ---------------------------------------------------------------------------
# region assignments, quartet pruning and the feasibility LP


def _pair_paths(edges: tuple, n: int):
    """For each leaf pair, the edge indices on its path."""
    return _leaf_paths(_leaf_masks(edges, range(n)), n)


def _can_be_le(lo, hi) -> bool:
    """Can a sum of two distances in regions ``lo`` be at most a sum of two
    distances in regions ``hi``, for some threshold sequence?

    Region r means theta_r < x <= theta_{r+1}, with theta_0 = 0,
    theta_{q+1} = infinity and 0 < theta_1 < ... < theta_q otherwise free.
    Let a <= b be the ``lo`` regions and c <= d the ``hi`` regions.  Each
    distance ranges over its region, so the ``lo`` sum can sit at or below
    the ``hi`` sum exactly when theta_a + theta_b < theta_{c+1} + theta_{d+1}
    for some thresholds.

    - If d >= b, then d + 1 > b >= a: raising theta_{d+1} and every
      threshold above it leaves theta_a and theta_b alone and makes the
      right side as large as needed.
    - If c >= a and d < b, then a < c + 1 <= d + 1 <= b: a wide gap between
      theta_a and theta_{a+1}, with every other gap narrow, makes
      theta_{c+1} - theta_a exceed theta_b - theta_{d+1}.
    - Otherwise c + 1 <= a and d + 1 <= b, so theta_{c+1} <= theta_a and
      theta_{d+1} <= theta_b for every sequence.
    """
    return max(hi) >= max(lo) or min(lo) <= min(hi)


# Checks on a quartet's three pair sums, as (lo, hi) indices that must
# satisfy _can_be_le.  By the four-point condition the two cross sums of a
# split quartet (indices 1 and 2) are equal and the split sum (index 0) is
# at most both; the three sums of a star quartet are equal.
_SPLIT_CHECKS = ((1, 2), (2, 1), (0, 1), (0, 2))
_STAR_CHECKS = tuple(itertools.permutations(range(3), 2))


def _quartet_structures(n: int, masks):
    """Per 4-subset: its three pair groupings, the split grouping first
    when there is one, and the checks that apply to their sums.

    ``masks`` are the topology's edge leaf masks (``_leaf_masks``).  ab|cd
    is the split of quartet Q exactly when some edge parts a, b from c, d,
    that is when some mask meets Q in {a, b} or in {c, d}.
    """
    structures = []
    for a, b, c, d in itertools.combinations(range(n), 4):
        quartet = 1 << a | 1 << b | 1 << c | 1 << d
        cuts = {m & quartet for m in masks}
        groupings = (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c)))
        for idx, ((u, v), (x, y)) in enumerate(groupings):
            if (1 << u | 1 << v) in cuts or (1 << x | 1 << y) in cuts:
                others = groupings[:idx] + groupings[idx + 1:]
                structures.append(((groupings[idx],) + others, _SPLIT_CHECKS))
                break
        else:
            structures.append((groupings, _STAR_CHECKS))
    return structures


def _allowed_regions(is_edge: bool, q: int) -> tuple:
    # region r => the pair is below q-r thresholds; edge iff that count is odd
    return tuple(r for r in range(q + 1) if ((q - r) % 2 == 1) == is_edge)


class _TopologySearch:
    """Backtracking region-assignment search for one topology."""

    def __init__(self, edges, n, edge_pairs, q):
        self.edges = edges
        self.n = n
        self.q = q
        masks = _leaf_masks(edges, range(n))
        self.paths = _leaf_paths(masks, n)
        self.pairs = sorted(self.paths)
        pair_pos = {p: i for i, p in enumerate(self.pairs)}
        self.allowed = [
            _allowed_regions(p in edge_pairs, q) for p in self.pairs
        ]
        self.assignment = [None] * len(self.pairs)
        # branch on forced pairs first, then natural order
        self.order = sorted(
            range(len(self.pairs)), key=lambda i: (len(self.allowed[i]), i)
        )
        when_assigned = {pair_idx: t for t, pair_idx in enumerate(self.order)}
        # each quartet is checked once, when its last pair gets assigned;
        # it is stored as the pair positions of its three sums
        self.quartets_by_pair = [[] for _ in self.pairs]
        for groupings, checks in _quartet_structures(n, masks):
            sums = tuple((pair_pos[p1], pair_pos[p2]) for p1, p2 in groupings)
            trigger = max((i for s in sums for i in s), key=when_assigned.__getitem__)
            self.quartets_by_pair[trigger].append((sums, checks))

    def _quartets_ok(self, pair_idx) -> bool:
        assignment = self.assignment
        for sums, checks in self.quartets_by_pair[pair_idx]:
            regions = [(assignment[i], assignment[j]) for i, j in sums]
            for lo, hi in checks:
                if not _can_be_le(regions[lo], regions[hi]):
                    return False
        return True

    def search(self):
        return self._dfs(0)

    def _dfs(self, depth):
        if depth == len(self.order):
            return self._solve_lp()
        pair_idx = self.order[depth]
        for region in self.allowed[pair_idx]:
            self.assignment[pair_idx] = region
            if self._quartets_ok(pair_idx):
                result = self._dfs(depth + 1)
                if result is not None:
                    return result
        self.assignment[pair_idx] = None
        return None

    def _solve_lp(self):
        """Exact feasibility for the full assignment.

        Variables (all >= 0 after shifting):
          x_e = w_e - 1 for each topology edge,
          y_i = theta_i - theta_{i-1} - 1 (theta_0 = 0),
        so theta_i = i + y_1 + ... + y_i and every strict inequality is a
        margin-1 constraint (no solutions are lost: the system is
        scale-invariant).
        """
        m = len(self.edges)
        q = self.q
        constraints = []
        for pos, pair in enumerate(self.pairs):
            r = self.assignment[pos]
            path = self.paths[pair]
            base = len(path)  # contribution of the +1 shifts
            if r >= 1:
                coeffs = {e: 1 for e in path}
                for j in range(r):
                    coeffs[m + j] = coeffs.get(m + j, 0) - 1
                constraints.append((coeffs, exactlp.GE, r + 1 - base))
            if r < q:
                coeffs = {e: 1 for e in path}
                for j in range(r + 1):
                    coeffs[m + j] = coeffs.get(m + j, 0) - 1
                constraints.append((coeffs, exactlp.LE, (r + 1) - base))
        solution = exactlp.find_feasible_point(m + q, constraints)
        if solution is None:
            return None
        weights = [solution[e] + 1 for e in range(m)]
        thetas = []
        acc = Fraction(0)
        for j in range(q):
            acc += solution[m + j] + 1
            thetas.append(acc)
        return weights, thetas


def _tree_from(edges, labels, weights) -> WeightedTree:
    """The weighted tree of a topology: leaf i is named ``labels[i]`` and
    internal vertex v is named ``int{v - n}``."""
    n = len(labels)

    def name(v):
        return labels[v] if v < n else f"int{v - n}"

    return WeightedTree(
        [(name(u), name(v), w) for (u, v), w in zip(edges, weights)],
        {label: label for label in labels},
    )


def recognize_glp(
    graph: SimpleGraph, q: int, limits: RecognitionLimits | None = None
) -> GlpCertificate | None:
    """Exhaustive GLP(q) membership decision with certificate.

    Returns an integerized certificate from the first feasible topology in
    orbit-reduced canonical enumeration order, or None when no weighted
    tree and threshold sequence exist.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    limits = limits or DEFAULT_LIMITS
    n = len(graph)
    cap = limits.cap_for(q)
    if n > cap:
        raise CapacityError(f"{n} vertices exceeds the q={q} cap of {cap}")
    labels = list(graph.vertices)
    if n == 1:
        thetas = tuple(Fraction(k + 1) for k in range(q))
        return GlpCertificate(_tree_from((), labels, ()), ThresholdSequence(thetas))
    if q == 1 and not is_chordal(graph):
        return None

    edge_pairs, topologies = _orbit_topologies(graph)
    for edges in topologies:
        result = _TopologySearch(edges, n, edge_pairs, q).search()
        if result is not None:
            weights, thetas = result
            tree = _tree_from(edges, labels, weights)
            cert = GlpCertificate(tree, ThresholdSequence(tuple(thetas)))
            if graph_from_certificate(cert) != graph:
                raise InternalError("recognize_glp: the certificate induces another graph")
            return integerize_certificate(cert)
    return None


# ---------------------------------------------------------------------------
# fixed-threshold (integer k) leaf powers


def _ilp_feasible(num_vars, base_constraints, upper_bound):
    """Integer feasibility by LP-based branch and bound (exact rationals)."""

    def rec(extra):
        solution = exactlp.find_feasible_point(
            num_vars, base_constraints + extra
        )
        if solution is None:
            return None
        for i, v in enumerate(solution):
            if v.denominator != 1:
                lo = v.numerator // v.denominator
                left = rec(extra + [({i: 1}, exactlp.LE, lo)])
                if left is not None:
                    return left
                return rec(extra + [({i: 1}, exactlp.GE, lo + 1)])
        return solution

    bounds = [({i: 1}, exactlp.LE, upper_bound) for i in range(num_vars)]
    return rec(bounds)


def is_k_leaf_power(
    graph: SimpleGraph, k: int, limits: RecognitionLimits | None = None
) -> WeightedTree | None:
    """An integer-weighted tree with d(u,v) <= k exactly on the edges, or None.

    Weights above k+1 are never needed (any heavier edge can be cut to
    k+1 without changing which pairs are within k), so the integer search
    is over the finite box [1, k+1]^edges per topology.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    limits = limits or DEFAULT_LIMITS
    n = len(graph)
    if n > limits.max_leaves_q1:
        raise CapacityError(f"{n} vertices exceeds the cap of {limits.max_leaves_q1}")
    labels = list(graph.vertices)
    if n == 1:
        return _tree_from((), labels, ())
    if not is_chordal(graph):
        return None

    edge_pairs, topologies = _orbit_topologies(graph)
    for edges in topologies:
        m = len(edges)
        paths = _pair_paths(edges, n)
        constraints = [({e: 1}, exactlp.GE, 1) for e in range(m)]
        ok_shape = True
        for pair, path in paths.items():
            coeffs = {e: 1 for e in path}
            if pair in edge_pairs:
                if len(path) > k:  # every edge weighs >= 1
                    ok_shape = False
                    break
                constraints.append((coeffs, exactlp.LE, k))
            else:
                constraints.append((coeffs, exactlp.GE, k + 1))
        if not ok_shape:
            continue
        solution = _ilp_feasible(m, constraints, k + 1)
        if solution is not None:
            tree = _tree_from(edges, labels, [int(v) for v in solution])
            cert = GlpCertificate(tree, ThresholdSequence((Fraction(k),)))
            if graph_from_certificate(cert) != graph:
                raise InternalError("is_k_leaf_power: the k-leaf root induces another graph")
            return tree
    return None


def leaf_rank(
    graph: SimpleGraph, limits: RecognitionLimits | None = None
) -> int | None:
    """Smallest integer k for which the graph is a k-leaf power, or None.

    None means the graph is not a leaf power at all (decided by the
    exhaustive GLP(1) search).  An integerized certificate bounds the
    search from above; the configured ceiling guards the loop.
    """
    limits = limits or DEFAULT_LIMITS
    if len(graph) == 1:
        return 1
    cert = recognize_glp(graph, 1, limits)
    if cert is None:
        return None
    theta = cert.thresholds.thresholds[0]  # recognize_glp integerizes
    if theta.denominator != 1:
        raise InternalError("leaf_rank: the integerized threshold is not an integer")
    upper = int(theta)
    ceiling = min(upper, limits.leaf_rank_ceiling)
    for k in range(1, ceiling + 1):
        if is_k_leaf_power(graph, k, limits) is not None:
            return k
    if upper > limits.leaf_rank_ceiling:
        raise CeilingExceededError(
            f"no k-leaf root found up to the ceiling {limits.leaf_rank_ceiling}"
        )
    raise InternalError("leaf_rank: the integer certificate does not witness k = upper")
