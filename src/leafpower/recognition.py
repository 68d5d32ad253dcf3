"""Brute-force, desk-scale recognition oracles.

GLP(q) membership, k-leaf-power membership and leaf rank, decided by
exhaustive enumeration of unrooted series-reduced leaf-labeled topologies
combined with exact rational linear feasibility.  Everything is exact;
answers are decisions, not heuristics.

Search layout per graph: one leaf-insertion recursion
(``iter_topologies``) places leaf k in every possible way and, through
the hook of the graph's ``_SearchPlan``, gives the pairs (i, k) their
threshold regions under the parity edge rule, depth-first.  Each quartet
is checked by an exact four-point-condition consistency test as soon as
its largest leaf is placed and its last pair has a region; its shape is
read off the partial topology and never changes later, so a placement
with no surviving assignment cuts every topology grown from it.  A full
topology that is not the least of its orbit under the graph's
automorphisms is dropped, and every surviving (topology, assignment)
pair is decided by a margin-1 exact LP over edge weights and thresholds.

One ``_SearchPlan`` per graph and q is the whole search: it holds the
graph's labels and edges, the orbit filter of its automorphisms, the
pairs, their allowed regions, the forced pairs (those with one allowed
region) and per leaf the quartets to check and their verdicts;
``_glp_rows`` writes the LP of an assignment.  Tables that depend on n
alone (the shapes each edge mask gives the quartets of a leaf,
``_split_table``; the six pairs of each quartet, ``_quartet_pairs``) and
the verdict of each region pattern are built once per process.  At q = 1 every pair is forced, so
the recursion is a cut of the topologies whose quartets fail.  A k-leaf
root is a GLP(1) certificate with integer weights and theta_1 = k, so
the k-leaf search runs an integer program on the q = 1 rows, and
``leaf_rank`` runs its GLP(1) search and every k on one plan.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
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
from .tree_metric import WeightedTree, _distance_row, _leaf_paths, _lp_weights, _tree_from

TOPOLOGY_LEAF_CAP = 9  # n! leaf placements explode beyond this at desk scale
THRESHOLD_CAP = 1000  # a GLP(q) certificate holds q thresholds


_DEFAULT_LEAF_CAPS = {1: 8, 2: 8, 3: 6}  # per q; 5 leaves for every larger q


@dataclass
class RecognitionLimits:
    """Size caps for the brute-force searches (configuration, not constants).

    ``max_leaves`` caps the vertices at every q; None keeps the default
    caps per q (the k-leaf searches use the q = 1 cap).  ``k_ceiling``
    bounds the k of ``leaf_rank`` and ``is_k_leaf_power``.
    """

    max_leaves: int | None = None
    k_ceiling: int = 64

    def cap_for(self, q: int) -> int:
        if self.max_leaves is not None:
            return self.max_leaves
        return _DEFAULT_LEAF_CAPS.get(q, 5)

    def check_size(self, n: int, q: int) -> None:
        cap = self.cap_for(q)
        if n > cap:
            raise CapacityError(f"{n} vertices exceeds the q={q} cap of {cap}")


DEFAULT_LIMITS = RecognitionLimits()


def iter_topologies(n: int, _extend=None) -> Iterator[tuple]:
    """Yield every series-reduced topology on leaves 0..n-1 exactly once,
    as the tuple of its edge leaf masks: bit i of an edge's mask is set
    when leaf i is on its far side from leaf 0.  ``masks[0]`` is leaf 0's
    pendant edge, and no two masks are equal.

    Generation is by leaf insertion: leaf k either subdivides an edge e or
    attaches to the internal vertex at the far end of e (when e's mask has
    two bits or more).  Either way bit k goes into every mask that contains
    e's mask, the edges from leaf 0 through e; then the mask ``1 << k`` of
    the new pendant edge is appended, and e's old mask, of the lower half
    of e, when e is subdivided.  Removing the highest leaf inverts the step
    uniquely, so no duplicates are produced, and the topology induced on
    leaves 0..k is the same in every topology grown from it.

    ``_extend(k, masks, code)``, when given, is called once leaf k is
    placed, with the masks of the partial topology on leaves 0..k (to
    read, and only before its first code is taken) and a code that the
    placement of leaf k - 1 gave (0 for leaf 1).  It returns an iterable of
    codes; each is grown by every placement of leaf k + 1 in turn, and the
    topologies come as pairs ``(masks, code)``, one per code given for the
    last leaf.  A placement with no code cuts every topology grown from it.
    """
    if n < 1:
        raise ValueError("need at least 1 leaf")
    if n == 1:
        yield () if _extend is None else ((), 0)
        return
    masks = [0b10]

    def rec(k, code):
        codes = (code,) if _extend is None else _extend(k - 1, masks, code)
        if k == n:
            full = tuple(masks)
            for code in codes:
                yield full if _extend is None else (full, code)
            return
        bit = 1 << k
        for code in codes:
            for e in range(len(masks)):
                old = masks[e]
                up = [i for i, m in enumerate(masks) if m & old == old]
                for i in up:
                    masks[i] |= bit
                if old & (old - 1):  # attach to the internal vertex below e
                    masks.append(bit)
                    yield from rec(k + 1, code)
                    masks.pop()
                masks.extend((bit, old))  # subdivide e
                yield from rec(k + 1, code)
                del masks[-2:]
                for i in up:
                    masks[i] ^= bit

    yield from rec(2, 0)


# ---------------------------------------------------------------------------
# graph automorphisms and topology orbit representatives


def graph_automorphisms(graph: SimpleGraph) -> list[tuple[int, ...]]:
    """All vertex permutations (as index tuples) preserving adjacency, in
    lexicographic order.

    Backtracking places vertex 0, 1, ... in turn, each on the unused
    vertices of its degree in increasing order, and keeps a choice c for
    vertex i only when c is adjacent to the images of exactly the placed
    vertices that i is adjacent to.  A full placement then preserves every
    adjacency, and every automorphism passes each of these tests.
    """
    vertices = graph.vertices
    n = len(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    rows = [0] * n
    for u, v in graph.edge_list():
        i, j = index[u], index[v]
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    degree = [r.bit_count() for r in rows]
    same_degree = [[c for c in range(n) if degree[c] == degree[i]] for i in range(n)]
    placed_neighbors = [[j for j in range(i) if rows[i] >> j & 1] for i in range(n)]
    perm = [0] * n
    image_bit = [0] * n  # 1 << perm[j]
    autos = []

    def place(i, used):
        image = 0
        for j in placed_neighbors[i]:
            image |= image_bit[j]
        for c in same_degree[i]:
            bit = 1 << c
            if not used & bit and rows[c] & used == image:
                perm[i] = c
                image_bit[i] = bit
                if i + 1 == n:
                    autos.append(tuple(perm))
                else:
                    place(i + 1, used | bit)

    if n == 0:
        return [()]
    place(0, 0)
    return autos


class _MaskImages(dict):
    """The images of leaf masks under one vertex permutation, each computed
    on its first lookup, and read from the other side (complemented over
    the n leaves) when the image holds leaf 0, as split keys are.

    The image of m XORs one term per bit j of m: ``1 << perm[j]``, except
    ``full ^ 1`` for the leaf j that perm maps to leaf 0.  A mask without
    that leaf gets the XOR of distinct bits, its image; a mask with it gets
    ``full ^ 1`` XOR the image of the rest, the complement of its image.
    """

    __slots__ = ("terms",)

    def __init__(self, perm, n):
        super().__init__()
        full = (1 << n) - 1
        self.terms = [full ^ 1 if p == 0 else 1 << p for p in perm]

    def __missing__(self, m):
        terms = self.terms
        image = 0
        rest = m
        while rest:
            low = rest & -rest
            image ^= terms[low.bit_length() - 1]
            rest ^= low
        self[m] = image
        return image

    def sorts_below(self, key) -> bool:
        """Does the sorted image of the split key come before the key?"""
        return sorted(map(self.__getitem__, key)) < key


class _LeastImages(dict):
    """The least image of a leaf mask over a list of ``_MaskImages``,
    computed the first time the mask is looked up."""

    def __init__(self, images):
        super().__init__()
        self.images = images

    def __missing__(self, m):
        self[m] = least = min(map(operator.itemgetter(m), self.images))
        return least


class _OrbitFilter:
    """The orbit test on the topologies of one graph with a nontrivial
    automorphism group: a topology is kept when its split key, the sorted
    masks of its internal edges, is the least of its images.

    Two tests decide it, reading mask images only as they are needed:

    - Least images.  ``least[m]`` is the least image of the mask m over
      the group.  A key mask whose least image is below the key's first
      mask ``key[0]`` puts some image below the key: reject.
    - Candidates.  Otherwise every image of every key mask is at least
      ``key[0]``, so the sorted image of the key under g starts at or above
      ``key[0]``, and it can come before the key only when it starts with
      ``key[0]``: when g maps some key mask onto ``key[0]``, that is when
      N_g^-1(``key[0]``) is in the key, N_g being g's action on normalized
      masks.  That is g's action on the splits of the leaf set, each split
      named by its side without leaf 0, so it is a group action and
      N_g^-1 = N_(g^-1).  So only the automorphisms g whose inverse maps
      ``key[0]`` into the key are compared; no other one can undercut it.

    ``by_first[first]`` maps each preimage p of ``first`` to the images of
    the automorphisms g with N_(g^-1)(first) = p; it is filled per first
    mask on its first lookup, from the automorphisms indexed by inverse.
    No mask image is built before a topology with a nonempty key asks.
    """

    def __init__(self, autos, n):
        self.autos = autos
        self.n = n
        self.by_first = {}

    @functools.cached_property
    def images(self):
        """Per automorphism, in list order, its ``_MaskImages``."""
        return [_MaskImages(perm, self.n) for perm in self.autos]

    @functools.cached_property
    def least(self):
        return _LeastImages(self.images)

    @functools.cached_property
    def inverse_images(self):
        """Per automorphism, in list order, the mask images of its inverse."""
        position = {perm: i for i, perm in enumerate(self.autos)}
        inverses = []
        for perm in self.autos:
            inverse = [0] * len(perm)
            for i, p in enumerate(perm):
                inverse[p] = i
            inverses.append(self.images[position[tuple(inverse)]])
        return inverses

    def _fill_by_first(self, first):
        by_preimage = {}
        for image, inverse in zip(self.images, self.inverse_images):
            by_preimage.setdefault(inverse[first], []).append(image)
        self.by_first[first] = by_preimage
        return by_preimage

    def is_representative(self, masks) -> bool:
        """Is the topology's split key the least of its images?  The key is
        the sorted masks of its internal edges: those with two bits or more,
        less leaf 0's pendant mask ``masks[0]``."""
        key = sorted([m for m in masks[1:] if m & (m - 1)])
        if not key:
            return True
        first = key[0]
        if min(map(self.least.__getitem__, key)) < first:
            return False
        by_preimage = self.by_first.get(first)
        if by_preimage is None:
            by_preimage = self._fill_by_first(first)
        for m in key:
            for image in by_preimage.get(m, ()):
                if image.sorts_below(key):
                    return False
        return True


# ---------------------------------------------------------------------------
# region assignments, quartet pruning and the feasibility LP


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


@functools.cache
def _split_table(k: int) -> list:
    """Per leaf mask m over leaves 0..k: a dict from t, the index of
    (a, b, c) in ``itertools.combinations(range(k), 3)``, to the shape of
    each quartet a < b < c < k that an edge with far side m splits 2|2.
    The shape is 0, 1 or 2 when the edge parts the quartet as ab|ck, ac|bk
    or ak|bc, read off the side of the cut that holds a.  Masks never hold
    leaf 0, so the odd ones get no entries."""
    table = [{} for _ in range(2 << k)]
    for t, (a, b, c) in enumerate(itertools.combinations(range(k), 3)):
        others = (b, c, k)
        leaves = 1 << a | 1 << b | 1 << c | 1 << k
        for m in range(0, 2 << k, 2):
            cut = m & leaves
            if cut.bit_count() == 2:
                pair = cut if cut >> a & 1 else leaves ^ cut
                table[m][t] = others.index((pair ^ 1 << a).bit_length() - 1)
    return table


def _quartet_shapes(masks, k: int) -> dict:
    """The shape of every quartet a < b < c < k, by its index in
    ``_split_table(k)``, in the topology on leaves 0..k whose edge leaf
    masks are ``masks``: 3, a star, unless the split table entry of some
    mask splits it.  Pendant masks, of one bit or k bits, split no
    quartet, so only internal edges count."""
    split = _split_table(k)
    shapes = dict.fromkeys(range(math.comb(k, 3)), 3)
    for m in masks:
        shapes.update(split[m])
    return shapes


@functools.cache
def _quartet_pairs(n: int) -> list:
    """Per leaf k < n: for each quartet a < b < c < k, in the order of
    ``_split_table(k)``, the indices of its six pairs ab, ac, ak, bc, bk,
    ck in ``itertools.combinations(range(n), 2)``."""
    index = {p: i for i, p in enumerate(itertools.combinations(range(n), 2))}
    return [
        [tuple(index[p] for p in itertools.combinations(abc + (k,), 2)) for abc in itertools.combinations(range(k), 3)]
        for k in range(n)
    ]


def _allowed_regions(is_edge: bool, q: int) -> tuple:
    # region r => the pair is below q-r thresholds; edge iff that count is odd
    return tuple(r for r in range(q + 1) if ((q - r) % 2 == 1) == is_edge)


@functools.cache
def _checks_pass(sum_regions, checks) -> bool:
    """Do a quartet's three pair sums, each given by the regions of its two
    pairs, pass ``checks``?  The answer depends only on these tuples, so it
    is computed once per process."""
    return all(_can_be_le(sum_regions[lo], sum_regions[hi]) for lo, hi in checks)


def _glp_rows(paths, m: int, q: int, regions) -> list:
    """The margin-1 LP rows that put each pair of ``paths`` (``_leaf_paths``)
    in its region r = ``regions[pair]`` on a topology with m edges: d >=
    theta_r + 1 and d <= theta_{r+1}, where these thresholds exist.  Edges
    are encoded by ``_distance_row``, and the gaps y_i = theta_i - theta_{i-1}
    - 1 >= 0 (theta_0 = 0) are variables m to m + q - 1, so both rows read
    d - y_1 - ... - y_t rel r + 1.  Scale invariance makes margin 1 lossless.
    """
    rows = []
    for pair, path in paths.items():
        r = regions[pair]
        for t, rel in ((r, exactlp.GE), (r + 1, exactlp.LE)):
            if 1 <= t <= q:
                coeffs, _, rhs = _distance_row(path, (), rel, r + 1)
                rows.append((coeffs | dict.fromkeys(range(m, m + t), -1), rel, rhs))
    return rows


class _SearchPlan:
    """The exhaustive search of one graph at one q, compiled once: the hook
    ``extend`` of ``iter_topologies``, the LP of a full assignment and the
    certificate it gives.  It is the only owner of the pairs' regions and
    the quartet verdicts; ``_glp_rows`` writes the LP of an assignment.

    - ``labels``: the graph's vertices, leaf i being ``labels[i]``;
    - ``edge_pairs``: the graph's edges as leaf pairs i < j;
    - ``pairs``: the leaf pairs i < j in ``itertools.combinations`` order;
    - ``allowed``: each pair's regions under the parity edge rule;
    - ``forced_code``: the assignment code of the forced pairs, those with
      one allowed region;
    - ``orbits``: the ``_OrbitFilter`` of the graph's automorphisms, or
      None when the group is trivial;
    - ``steps[k]``: what ``extend`` does once leaf k is placed, as
      ``(forced, free, checks, checked)``: the code of the forced pairs
      (i, k); the ``(shift, regions)`` of the free ones in the order of i,
      each with its regions from the highest down (at q = 2 a free pair is
      a non-edge, and most non-edges are far apart); per number j of them
      assigned, the quartets whose largest leaf is k and whose last free
      pair is the j-th (j = 0: none of its pairs (i, k) is free); and
      whether any quartet is checked at all.

    An assignment code packs pair i's region into bits ``i * width`` and
    up.  A checked quartet is ``(t, qmask, positions, verdicts)``: its
    index t in ``_split_table(k)``, the bits of its six pairs in a code,
    their indices (``_quartet_pairs``) and, per ``(code & qmask) << 2 |
    shape``, whether it passes, so each verdict is computed once per graph
    and q.  A quartet whose six pairs are forced (every quartet at q = 1,
    and at q = 2 those of six edges, all in region 1) is decided here, with
    qmask 0; it is checked only when it fails in some shape, which never
    happens at q >= 2, since equal regions pass every check.
    """

    def __init__(self, graph: SimpleGraph, q: int):
        n = len(graph)
        if n > TOPOLOGY_LEAF_CAP:
            raise CapacityError(f"{n} vertices exceeds the topology cap of {TOPOLOGY_LEAF_CAP}")
        self.graph = graph
        self.labels = list(graph.vertices)
        self.n = n
        self.q = q
        index = {v: i for i, v in enumerate(self.labels)}
        self.edge_pairs = {tuple(sorted((index[u], index[v]))) for u, v in graph.edge_list()}
        autos = [p for p in graph_automorphisms(graph) if p != tuple(range(n))]
        self.orbits = _OrbitFilter(autos, n) if autos else None
        self.width = width = q.bit_length()
        bits = (1 << width) - 1
        self.pairs = list(itertools.combinations(range(n), 2))
        self.allowed = [_allowed_regions(p in self.edge_pairs, q) for p in self.pairs]
        forced = [len(regions) == 1 for regions in self.allowed]
        self.forced_code = sum(r[0] << i * width for i, r in enumerate(self.allowed) if forced[i])
        self.steps = []
        for k, quartets in enumerate(_quartet_pairs(n)):
            new = [self.pairs.index((i, k)) for i in range(k)]
            free = [i for i in new if not forced[i]]
            rank = {i: j + 1 for j, i in enumerate(free)}
            checks = [[] for _ in range(len(free) + 1)]
            for t, positions in enumerate(quartets):
                if all(forced[i] for i in positions):
                    verdicts = {shape: self.passes(self.forced_code, positions, shape) for shape in range(4)}
                    if not all(verdicts.values()):
                        checks[0].append((t, 0, positions, verdicts))
                    continue
                qmask = sum(bits << i * width for i in positions)
                last = max(rank.get(positions[i], 0) for i in (2, 4, 5))  # pairs ak, bk, ck
                checks[last].append((t, qmask, positions, {}))
            self.steps.append((
                sum(self.allowed[i][0] << i * width for i in new if forced[i]),
                [(i * width, self.allowed[i][::-1]) for i in free],
                checks,
                any(checks),
            ))

    def region(self, code, pair_idx):
        return code >> pair_idx * self.width & (1 << self.width) - 1

    def passes(self, code, positions, shape) -> bool:
        """Does the quartet a < b < c < d whose pairs ab, ac, ad, bc, bd, cd
        have indices ``positions`` pass the checks of ``shape`` under
        ``code``?  Its pair sums are ab + cd, ac + bd and ad + bc; a split
        shape s puts sum s first, the other two following in order."""
        ab, ac, ad, bc, bd, cd = (self.region(code, i) for i in positions)
        sums = ((ab, cd), (ac, bd), (ad, bc))
        if shape == 3:
            return _checks_pass(sums, _STAR_CHECKS)
        return _checks_pass((sums[shape],) + sums[:shape] + sums[shape + 1:], _SPLIT_CHECKS)

    def extend(self, k, masks, code):
        """The hook of ``iter_topologies``: once leaf k is placed, the
        extensions of ``code`` by regions of the pairs (i, k) that pass
        every quartet whose largest leaf is k, depth-first.  Each quartet is
        checked as soon as its last free pair has a region, with its shape
        read off the partial topology ``masks``.  At the last leaf, a full
        topology that the orbit filter drops gets no extension at all.

        Soundness.  The search cuts only what no tree realizes:

        - Leaf insertion keeps the topology induced on the leaves already
          placed, so a quartet's shape is final once its largest leaf is
          placed, and a code that fails the quartet there fails it in every
          topology grown from the placement.
        - The checks are necessary conditions: by the four-point condition
          (Buneman 1974), in a positively weighted tree the two cross sums
          of a split quartet are equal and at least its split sum, and the
          three sums of a star are equal; ``_can_be_le`` says exactly when
          two sums in given regions can be so ordered for some thresholds.
          Every quartet has one largest leaf, so a full topology is reached
          with exactly the codes that pass all its quartets, each once, and
          no weights and thresholds on it induce the graph at any other.
          A k-leaf root is a GLP(1) certificate with theta_1 = k, so no
          topology cut at q = 1 carries one either.
        - Orbits.  An automorphism of the graph maps each pair to a pair in
          the same region, and each quartet and its shape in a topology to
          the image quartet and its shape in the image topology, so a
          topology is reached with a code exactly when its images are
          reached with the image code.  The orbit filter keeps the topology
          with the least split key over the whole orbit, so if any
          topology carries a solution, a kept one does.
        """
        if k == self.n - 1 and self.orbits is not None and not self.orbits.is_representative(masks):
            return ()
        forced, free, checks, checked = self.steps[k]
        shapes = _quartet_shapes(masks, k) if checked else None
        code |= forced
        if not self._passes(code, checks[0], shapes):
            return ()
        return self._assign(code, 0, free, checks, shapes) if free else (code,)

    def _assign(self, code, j, free, checks, shapes):
        """Yield the extensions of ``code`` (which passes ``checks[j]``) by
        regions of ``free[j:]`` that pass the quartets checked on the way."""
        if j == len(free):
            yield code
            return
        shift, regions = free[j]
        for region in regions:
            extended = code | region << shift
            if self._passes(extended, checks[j + 1], shapes):
                yield from self._assign(extended, j + 1, free, checks, shapes)

    def _passes(self, code, quartets, shapes):
        for t, qmask, positions, verdicts in quartets:
            shape = shapes[t]
            key = (code & qmask) << 2 | shape
            ok = verdicts.get(key)
            if ok is None:
                ok = verdicts[key] = self.passes(code, positions, shape)
            if not ok:
                return False
        return True

    def regions(self, code) -> dict:
        return {pair: self.region(code, i) for i, pair in enumerate(self.pairs)}

    def solve(self, masks, code):
        """Edge weights, in mask order, and thresholds that induce the graph
        on the topology whose edge leaf masks are ``masks`` with the full
        assignment ``code``, from an exact LP on ``_glp_rows``, or None."""
        m, q = len(masks), self.q
        rows = _glp_rows(_leaf_paths(masks, self.n), m, q, self.regions(code))
        solution = exactlp.find_feasible_point(m + q, rows)
        if solution is None:
            return None
        return _lp_weights(solution, m), list(itertools.accumulate(_lp_weights(solution[m:], q)))

    def _certificate(self, masks, weights, thetas, caller) -> GlpCertificate:
        """The certificate of the topology ``masks`` with these edge weights
        and thresholds, checked to induce the graph."""
        cert = GlpCertificate(_tree_from(masks, self.labels, weights), ThresholdSequence(tuple(thetas)))
        if graph_from_certificate(cert) != self.graph:
            raise InternalError(f"{caller}: the certificate induces another graph")
        return cert

    def glp(self) -> GlpCertificate | None:
        """The first (topology, assignment) pair of the search whose exact
        LP is feasible, as a checked and integerized certificate, or None.
        Of each orbit under the graph's automorphisms only the topology with
        the least split key (``_OrbitFilter``) gets an LP."""
        for masks, code in iter_topologies(self.n, self.extend):
            result = self.solve(masks, code)
            if result is not None:
                return integerize_certificate(self._certificate(masks, *result, "recognize_glp"))
        return None

    def k_leaf_root(self, k: int) -> WeightedTree | None:
        """An integer-weighted tree of the graph with theta_1 = k, or None,
        on a q = 1 plan: on the orbit representatives of its search, its
        rows at the one assignment, with y_1 = k - 1, decided over integers
        x_e = w_e - 1 in [0, k]."""
        for masks, code in iter_topologies(self.n, self.extend):
            m = len(masks)
            paths = _leaf_paths(masks, self.n)
            if any(len(paths[pair]) > k for pair in self.edge_pairs):  # every edge weighs >= 1
                continue
            rows = _glp_rows(paths, m, self.q, self.regions(code)) + [({m: 1}, exactlp.EQ, k - 1)]
            solution = _ilp_feasible(m + 1, rows, k)
            if solution is not None:
                return self._certificate(masks, _lp_weights(solution, m), (Fraction(k),), "is_k_leaf_power").tree
        return None


def recognize_glp(
    graph: SimpleGraph, q: int, limits: RecognitionLimits | None = None
) -> GlpCertificate | None:
    """Exhaustive GLP(q) membership decision with certificate.

    Returns an integerized certificate from the first feasible (topology,
    assignment) pair of the orbit-reduced leaf-insertion search, or None
    when no weighted tree and threshold sequence exist.

    On n vertices GLP(q) = GLP(q - 2) once q > C(n, 2) + 1.  The C(n, 2)
    pair distances take at most C(n, 2) + 1 distinct sets of pairs at or
    below a threshold, so two consecutive thresholds count the same pairs
    and dropping both keeps every parity; two thresholds above every
    distance put them back.  So the search runs at the largest order
    q* <= C(n, 2) + 1 of q's parity, and the q - q* missing thresholds are
    added at or above the certificate's largest distance and above its
    largest threshold, where every pair counts all of them, an even number.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if q > THRESHOLD_CAP:
        raise CapacityError(f"q={q} exceeds the threshold cap of {THRESHOLD_CAP}")
    limits = limits or DEFAULT_LIMITS
    n = len(graph)
    limits.check_size(n, q)
    if n == 1:  # q* below would be 0 for an even q, and padding needs two leaves
        thetas = tuple(Fraction(k + 1) for k in range(q))
        return GlpCertificate(_tree_from((), list(graph.vertices), ()), ThresholdSequence(thetas))
    top = math.comb(n, 2) + 1
    q_star = q if q <= top else top - (q - top) % 2
    if q_star == 1 and not is_chordal(graph):
        return None
    cert = _SearchPlan(graph, q_star).glp()
    if cert is None or q_star == q:
        return cert
    thetas = cert.thresholds.thresholds
    start = max(cert.tree.diameter(), thetas[-1] + 1)
    cert = GlpCertificate(
        cert.tree, ThresholdSequence(thetas + tuple(start + i for i in range(q - q_star)))
    )
    if graph_from_certificate(cert) != graph:
        raise InternalError("recognize_glp: the padded certificate induces another graph")
    return cert


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
    is over the finite box [1, k+1]^edges per topology.  Branch and bound
    can take about one LP per unit of that box, so a k above the
    configured ceiling raises ``CeilingExceededError`` before any search.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    limits = limits or DEFAULT_LIMITS
    if k > limits.k_ceiling:
        raise CeilingExceededError(f"k={k} exceeds the k ceiling of {limits.k_ceiling}")
    limits.check_size(len(graph), 1)
    if not is_chordal(graph):
        return None
    return _SearchPlan(graph, 1).k_leaf_root(k)


def leaf_rank(
    graph: SimpleGraph, limits: RecognitionLimits | None = None
) -> int | None:
    """Smallest integer k for which the graph is a k-leaf power, or None.

    None means the graph is not a leaf power at all (decided by the
    exhaustive GLP(1) search).  An integerized certificate bounds the
    search from above; the configured k ceiling guards the loop.  The
    GLP(1) search and every k share one q = 1 ``_SearchPlan``.
    """
    limits = limits or DEFAULT_LIMITS
    limits.check_size(len(graph), 1)
    if not is_chordal(graph):
        return None
    plan = _SearchPlan(graph, 1)
    cert = plan.glp()
    if cert is None:
        return None
    theta = cert.thresholds.thresholds[0]  # glp integerizes
    if theta.denominator != 1:
        raise InternalError("leaf_rank: the integerized threshold is not an integer")
    upper = int(theta)
    ceiling = min(upper, limits.k_ceiling)
    for k in range(1, ceiling + 1):
        if plan.k_leaf_root(k) is not None:
            return k
    if upper > limits.k_ceiling:
        raise CeilingExceededError(f"no k-leaf root found up to the k ceiling {limits.k_ceiling}")
    raise InternalError("leaf_rank: the integer certificate does not witness k = upper")
