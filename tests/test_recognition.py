import hashlib
import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from leafpower import (
    CapacityError,
    CeilingExceededError,
    InternalError,
    RecognitionLimits,
    SimpleGraph,
    TocInstance,
    cert_lift,
    graph_from_certificate,
    is_chordal,
    is_k_leaf_power,
    leaf_rank,
    non_glp_family,
    recognize_glp,
    toc_realizability_small,
    verify_certificate,
)
from leafpower import exactlp, glp_core, recognition, tree_metric
from leafpower.recognition import (
    _MaskImages,
    _SearchPlan,
    _can_be_le,
    _quartet_shapes,
    graph_automorphisms,
    iter_topologies,
)
from leafpower.tree_metric import _leaf_masks, _leaf_paths, _mask_edges

from conftest import (
    automorphisms_by_scan,
    is_k_leaf_power_by_literature,
    kept_by_orbit_filter,
    orbit_representatives,
    plan_without_orbits,
    random_certificate,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")
C4 = SimpleGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
C5 = SimpleGraph("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")])
P8 = SimpleGraph("abcdefgh", list(zip("abcdefg", "bcdefgh")))
# chordal, with an induced 3-sun (triangle a, c, d; b, e, g on its sides),
# so not a leaf power
SUN7 = SimpleGraph(
    "abcdefg", [tuple(e) for e in ("ab", "ac", "ad", "ae", "bd", "cd", "ce", "cg", "dg", "fg")]
)

# the two 8-vertex graphs with certificates of the recognize benchmark, at
# q = 1 and q = 2; their groups have 8 and 2 automorphisms
CERT8_Q1 = SimpleGraph("abcdefgh", [tuple(e) for e in ("ab", "ac", "ae", "af", "ag", "bc", "be", "bg", "cg", "eg")])
CERT8_Q2 = SimpleGraph("abcdefgh", [tuple(e) for e in ("ae", "ah", "ce", "cg", "df", "eh", "fh")])
SEVEN = range(7)
EDGELESS7 = SimpleGraph(SEVEN)
COMPLETE7 = SimpleGraph(SEVEN, itertools.combinations(SEVEN, 2))

# number of series-reduced trees on n labeled leaves (total partitions
# of an (n-1)-set; standard combinatorial sequence)
KNOWN_COUNTS = {2: 1, 3: 1, 4: 4, 5: 26, 6: 236, 7: 2752}
# per n: the star quartets and all quartets over the topologies on n leaves
STARS_AND_QUARTETS = {4: (1, 4), 5: (25, 130), 6: (570, 3540), 7: (13580, 96320), 8: (348040, 2744560)}


def split_key(edges, n):
    """Canonical nontrivial-split fingerprint, rebuilt from scratch here."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    key = []
    for u, v in edges:
        if u < n or v < n:
            continue
        # leaves on v's side of the cut
        stack, seen = [v], {u, v}
        side = set()
        while stack:
            w = stack.pop()
            if w < n:
                side.add(w)
            for x in adj[w]:
                if x not in seen:
                    seen.add(x)
                    stack.append(x)
        if 0 in side:
            side = set(range(n)) - side
        key.append(frozenset(side))
    return frozenset(key)


def prefix_shapes(masks, n):
    """Each quartet a < b < c < k of the topology with edge leaf masks
    ``masks``, by k and then in ``combinations`` order, with its shape read
    as the search reads it: off the partial topology on leaves 0..k, whose
    masks are the full ones cut to those leaves."""
    for k in range(3, n):
        shapes = _quartet_shapes({m & (2 << k) - 1 for m in masks}, k)
        for t, (a, b, c) in enumerate(itertools.combinations(range(k), 3)):
            yield (a, b, c, k), shapes[t]


def quartet_shape(quartet, splits):
    """0, 1 or 2 when one of the splits (leaf sets of one side of an edge)
    parts the quartet a < b < c < d as ab|cd, ac|bd or ad|bc, else 3."""
    cuts = [side & set(quartet) for side in splits]
    for shape, v in enumerate(quartet[1:]):
        pair = {quartet[0], v}
        if pair in cuts or set(quartet) - pair in cuts:
            return shape
    return 3


class TestTopologies:
    def test_single_edge(self):
        topologies = list(iter_topologies(2))
        assert len(topologies) == 1
        assert _mask_edges(topologies[0], 2) == [(0, 1)]

    def test_n4_hand_count(self):
        # one star plus the three labeled pairings of the quartet shape
        topologies = [_mask_edges(masks, 4) for masks in iter_topologies(4)]
        assert len(topologies) == 4
        internal_edge_counts = sorted(
            sum(1 for u, v in t if u >= 4 and v >= 4) for t in topologies
        )
        assert internal_edge_counts == [0, 1, 1, 1]

    @pytest.mark.parametrize("n", sorted(KNOWN_COUNTS))
    def test_counts_and_uniqueness(self, n):
        keys = set()
        count = 0
        for masks in iter_topologies(n):
            edges = _mask_edges(masks, n)
            count += 1
            key = split_key(edges, n)
            assert key not in keys, "duplicate topology"
            keys.add(key)
            # series-reduced: all internal vertices have degree >= 3
            deg = {}
            for u, v in edges:
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
            internals = [v for v in deg if v >= n]
            assert all(deg[v] >= 3 for v in internals)
            assert all(deg[v] == 1 for v in deg if v < n)
            assert len(internals) <= n - 2
            assert len(deg) <= 2 * n - 1
            # a tree on vertices 0..|V|-1 whose leaf masks (seen from leaf 0)
            # are the yielded ones
            assert sorted(deg) == list(range(len(deg))) and len(edges) == len(deg) - 1
            assert _leaf_masks(edges, range(n)) == list(masks)
        assert count == KNOWN_COUNTS[n]

    def test_capacity(self):
        # whatever the limits, the search stops at TOPOLOGY_LEAF_CAP leaves
        with pytest.raises(CapacityError):
            recognize_glp(SimpleGraph(range(15)), 1, RecognitionLimits(max_leaves=15))

    def test_no_leaves_is_a_value_error(self):
        with pytest.raises(ValueError):
            next(iter_topologies(0))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_split_key_matches_oracle(self, n):
        # the split key of the orbit filter: the masks with two bits or
        # more, less leaf 0's pendant mask (the first)
        for masks in iter_topologies(n):
            key = [m for m in masks[1:] if m & (m - 1)]
            sides = frozenset(frozenset(i for i in range(n) if m >> i & 1) for m in key)
            assert len(sides) == len(key)
            assert sides == split_key(_mask_edges(masks, n), n)

    def test_eight_leaf_count(self):
        assert sum(1 for _ in iter_topologies(8)) == 39208

    def test_quartet_shapes_match_oracle(self):
        # a quartet is a star exactly when no split cuts it 2|2; otherwise
        # its shape names the pairing that a split cuts
        n = 7
        quartets = stars = 0
        for masks in iter_topologies(n):
            splits = split_key(_mask_edges(masks, n), n)
            for (a, b, c, d), shape in prefix_shapes(masks, n):
                cuts = [side & {a, b, c, d} for side in splits]
                cuts = [cut for cut in cuts if len(cut) == 2]
                quartets += 1
                if cuts:
                    pairing = (({a, b}, {c, d}), ({a, c}, {b, d}), ({a, d}, {b, c}))[shape]
                    assert pairing[0] in cuts or pairing[1] in cuts
                else:
                    assert shape == 3
                    stars += 1
        assert (stars, quartets) == STARS_AND_QUARTETS[n]

    @pytest.mark.parametrize("n", [4, 5, 6, 7, pytest.param(8, marks=pytest.mark.slow)])
    def test_split_table_shapes_match_quartet_shape(self, n):
        # the split table's shapes, read off each partial topology, against
        # the shape read off the full topology's splits, and the star count
        # over all quartets
        stars = total = 0
        for masks in iter_topologies(n):
            splits = split_key(_mask_edges(masks, n), n)
            quartets, shapes = zip(*prefix_shapes(masks, n))
            assert [quartet_shape(quartet, splits) for quartet in quartets] == list(shapes)
            stars += shapes.count(3)
            total += len(shapes)
        assert (stars, total) == STARS_AND_QUARTETS[n]


class TestRecognize:
    def test_c4_q1_none(self):
        assert recognize_glp(C4, 1) is None

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_complete_graph_q1(self, n):
        vs = [f"v{i}" for i in range(n)]
        g = SimpleGraph(vs, itertools.combinations(vs, 2))
        cert = recognize_glp(g, 1)
        assert cert is not None
        assert verify_certificate(g, cert)

    def test_c4_q2(self):
        cert = recognize_glp(C4, 2)
        assert cert is not None
        assert verify_certificate(C4, cert)

    def test_capacity(self):
        vs = [f"v{i}" for i in range(9)]
        with pytest.raises(CapacityError):
            recognize_glp(SimpleGraph(vs), 1)

    def test_soundness_random(self, rng):
        for _ in range(40):
            n = rng.randint(2, 5)
            vs = [f"v{i}" for i in range(n)]
            edges = [e for e in itertools.combinations(vs, 2) if rng.random() < 0.5]
            g = SimpleGraph(vs, edges)
            for q in (1, 2):
                cert = recognize_glp(g, q)
                if cert is not None:
                    assert verify_certificate(g, cert)
                    assert cert.order == q

    def test_q_lifting(self, rng):
        for _ in range(15):
            n = rng.randint(2, 5)
            vs = [f"v{i}" for i in range(n)]
            edges = [e for e in itertools.combinations(vs, 2) if rng.random() < 0.6]
            g = SimpleGraph(vs, edges)
            cert = recognize_glp(g, 1)
            if cert is None:
                continue
            assert recognize_glp(g, 2) is not None
            lifted = cert_lift(cert)
            assert lifted.order == 2
            assert verify_certificate(g, lifted)

    def test_chordality_filter_never_wrong(self):
        # run the raw search with no chordality shortcut on non-chordal
        # graphs; it must agree with the filtered answer (none)
        for g in (C4, C5):
            assert not is_chordal(g)
            assert recognize_glp(g, 1) is None
            plan = plan_without_orbits(g, 1)
            assert not any(plan.solve(masks, code) for masks, code in iter_topologies(len(g), plan.extend))

    def test_atlas_graphs_are_pcgs(self):
        # every graph on <= 7 vertices is a PCG (Calamoneri, Frascaria &
        # Sinaimeri 2013), hence in GLP(2), and in GLP(3) by lifting;
        # 2-6 vertices here, the 7-vertex sweep is too slow for this suite
        nx = pytest.importorskip("networkx")
        atlas = [g for g in nx.graph_atlas_g() if 2 <= g.number_of_nodes() <= 6]
        assert len(atlas) == 207
        for g in atlas:
            graph = SimpleGraph(list(g.nodes), list(g.edges))
            for q in (2, 3):
                cert = recognize_glp(graph, q)
                assert cert is not None and verify_certificate(graph, cert), (q, list(g.edges))


class TestOrderReduction:
    def test_c5_at_q300(self):
        # searched at q = 11, the largest order <= C(5, 2) + 1 of q's parity,
        # then padded to 300 thresholds
        cert = recognize_glp(C5, 300)
        assert cert is not None and cert.order == 300
        assert verify_certificate(C5, cert)

    def test_matches_the_unreduced_search(self):
        # GLP(q) = GLP(q - 2) on n vertices once q > C(n, 2) + 1
        nx = pytest.importorskip("networkx")
        atlas = [g for g in nx.graph_atlas_g() if 1 <= g.number_of_nodes() <= 4]
        assert len(atlas) == 18
        for g in atlas:
            graph = SimpleGraph(list(g.nodes), list(g.edges))
            n = len(graph)
            for q in range(1, n * (n - 1) // 2 + 4):
                cert = recognize_glp(graph, q)
                expected = _SearchPlan(graph, q).glp() is not None
                assert (cert is not None) == expected, (q, list(g.edges))
                assert cert is None or (cert.order == q and verify_certificate(graph, cert))


def own_topology(cert):
    """The certificate's tree as a topology over leaf indices (its edge
    leaf masks), and its induced graph, whose vertex i is leaf i."""
    labels = cert.tree.labels()
    ids = {cert.tree.vertex_of(a): i for i, a in enumerate(labels)}
    for v in cert.tree.vertices:
        ids.setdefault(v, len(ids))
    edges = tuple(sorted(tuple(sorted((ids[u], ids[v]))) for u, v, _ in cert.tree.edges))
    graph = graph_from_certificate(cert)
    index = {v: i for i, v in enumerate(graph.vertices)}
    assert [index[a] for a in labels] == list(range(len(labels)))
    return _leaf_masks(edges, range(len(labels))), graph


class TestQuartetPruning:
    def test_own_topology_is_never_pruned(self):
        # the search must reach the topology of a valid certificate with at
        # least one assignment: pruning only removes assignments no tree
        # realizes.  The hook is followed only along the placements of the
        # certificate's own topology, whose masks cut to leaves 0..k are
        # those of its partial topology on them.
        rng = random.Random(0xC0FFEE)
        searched = 0
        while searched < 200:
            cert = random_certificate(rng, max_leaves=7, max_q=3)
            if cert.order < 2 or len(cert.tree.labels()) < 4:
                continue
            searched += 1
            masks, graph = own_topology(cert)
            plan = plan_without_orbits(graph, cert.order)
            own = set(masks)

            def along_own(k, prefix, code, own=own, plan=plan):
                if set(prefix) == {m & (2 << k) - 1 for m in own} - {0}:
                    yield from plan.extend(k, prefix, code)

            assert any(set(found) == own for found, _ in iter_topologies(len(graph), along_own))

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_can_be_le_matches_lp(self, q):
        # variables: theta_1..theta_q, then d1..d4 with d1 + d2 <= d3 + d4
        def region_rows(var, r):
            rows = [({var: 1, r - 1: -1} if r else {var: 1}, exactlp.GE, 1)]
            if r < q:
                rows.append(({var: 1, r: -1}, exactlp.LE, 0))
            return rows

        ladder = [({0: 1}, exactlp.GE, 1)]
        ladder += [({i + 1: 1, i: -1}, exactlp.GE, 1) for i in range(q - 1)]
        region_pairs = list(itertools.combinations_with_replacement(range(q + 1), 2))
        for lo, hi in itertools.product(region_pairs, repeat=2):
            rows = list(ladder)
            for k, r in enumerate(lo + hi):
                rows += region_rows(q + k, r)
            rows.append(({q: 1, q + 1: 1, q + 2: -1, q + 3: -1}, exactlp.LE, 0))
            feasible = exactlp.find_feasible_point(q + 4, rows) is not None
            assert _can_be_le(lo, hi) == feasible, (lo, hi)


def unit_grid_leaf_powers(n, max_weight):
    """All n-leaf leaf-power edge sets from integer weights <= max_weight.

    Brute force over every topology and every weight grid point; distances
    are evaluated with one matrix product per topology.  Serves as the
    independent completeness oracle for the search.
    """
    pairs = list(itertools.combinations(range(n), 2))
    achievable = set()
    for masks in iter_topologies(n):
        m = len(masks)
        paths = _leaf_paths(masks, n)
        incidence = np.zeros((m, len(pairs)), dtype=np.int64)
        for col, pair in enumerate(pairs):
            for e in paths[pair]:
                incidence[e, col] = 1
        grids = np.array(
            list(itertools.product(range(1, max_weight + 1), repeat=m)),
            dtype=np.int64,
        )
        dists = grids @ incidence  # (combo, pair)
        for k in range(1, int(dists.max()) + 1):
            masks = dists <= k
            for row in np.unique(masks, axis=0):
                achievable.add(tuple(bool(x) for x in row))
    return pairs, achievable


class TestCompleteness:
    def test_all_graphs_n4_vs_grid_oracle(self):
        pairs, achievable = unit_grid_leaf_powers(4, 6)
        vs = [f"v{i}" for i in range(4)]
        for bits in itertools.product([False, True], repeat=len(pairs)):
            edges = [
                (vs[i], vs[j]) for (i, j), b in zip(pairs, bits) if b
            ]
            g = SimpleGraph(vs, edges)
            assert (recognize_glp(g, 1) is not None) == (tuple(bits) in achievable)

    def test_sampled_graphs_n5_vs_grid_oracle(self):
        pairs, achievable = unit_grid_leaf_powers(5, 4)
        vs = [f"v{i}" for i in range(5)]
        rng = random.Random(2024)
        seen = set()
        for _ in range(60):
            bits = tuple(rng.random() < 0.55 for _ in pairs)
            if bits in seen:
                continue
            seen.add(bits)
            edges = [(vs[i], vs[j]) for (i, j), b in zip(pairs, bits) if b]
            g = SimpleGraph(vs, edges)
            got = recognize_glp(g, 1) is not None
            if bits in achievable:
                assert got
            elif got:
                # the grid oracle is capped; a found certificate must verify
                assert verify_certificate(g, recognize_glp(g, 1))
                # and its integer weights must genuinely exceed the grid cap
                cert = recognize_glp(g, 1)
                assert max(w for _, _, w in cert.tree.edges) > 4


class TestKLeafPower:
    def test_p3_k3(self):
        p3 = SimpleGraph("abc", [("a", "b"), ("b", "c")])
        tree = is_k_leaf_power(p3, 3)
        assert tree is not None
        assert tree.distance("a", "b") <= 3
        assert tree.distance("b", "c") <= 3
        assert tree.distance("a", "c") >= 4
        assert all(w.denominator == 1 for _, _, w in tree.edges)

    def test_c4_never(self):
        for k in range(1, 6):
            assert is_k_leaf_power(C4, k) is None

    def test_atlas_k2_k3_match_literature(self):
        # 2-leaf powers are the disjoint unions of cliques; 3-leaf powers the
        # chordal graphs with no induced bull, dart or gem (Dom, Guo, Hueffner
        # & Niedermeier 2006; Brandstaedt & Le 2006)
        nx = pytest.importorskip("networkx")
        atlas = [g for g in nx.graph_atlas_g() if 1 <= g.number_of_nodes() <= 6]
        assert len(atlas) == 208
        for g in atlas:
            graph = SimpleGraph(list(g.nodes), list(g.edges))
            for k in (2, 3):
                expected = is_k_leaf_power_by_literature(g, k)
                assert (is_k_leaf_power(graph, k) is not None) == expected, (k, list(g.edges))

    def test_weights_doubled(self):
        # doubling every weight of a k-leaf root gives a 2k-leaf root, and a
        # (2k+1)-leaf root too, since integer distances are then even
        nx = pytest.importorskip("networkx")
        atlas = [g for g in nx.graph_atlas_g() if 1 <= g.number_of_nodes() <= 6]
        members = 0
        for g in atlas:
            graph = SimpleGraph(list(g.nodes), list(g.edges))
            for k in (1, 2, 3):
                if is_k_leaf_power(graph, k) is None:
                    continue
                members += 1
                for doubled in (2 * k, 2 * k + 1):
                    assert is_k_leaf_power(graph, doubled) is not None, (k, doubled, list(g.edges))
        assert members > 100

    def test_k_above_the_ceiling_fails_before_any_search(self, monkeypatch):
        def no_ilp(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr(recognition, "_ilp_feasible", no_ilp)
        p6 = SimpleGraph("abcdef", list(zip("abcde", "bcdef")))
        with pytest.raises(CeilingExceededError):
            is_k_leaf_power(p6, 10**6)
        with pytest.raises(CeilingExceededError):
            is_k_leaf_power(p6, 4, RecognitionLimits(k_ceiling=3))

    def test_padding_sampled(self, rng):
        done = 0
        while done < 12:
            n = rng.randint(2, 5)
            vs = [f"v{i}" for i in range(n)]
            edges = [e for e in itertools.combinations(vs, 2) if rng.random() < 0.6]
            g = SimpleGraph(vs, edges)
            k = rng.randint(1, 4)
            if is_k_leaf_power(g, k) is None:
                continue
            assert is_k_leaf_power(g, k + 2) is not None
            done += 1


class TestLeafRank:
    def test_k2(self):
        assert leaf_rank(SimpleGraph("ab", [("a", "b")])) == 1

    def test_p3(self):
        assert leaf_rank(SimpleGraph("abc", [("a", "b"), ("b", "c")])) == 3

    def test_non_leaf_power(self):
        assert leaf_rank(C4) is None

    def test_p8(self):
        assert leaf_rank(P8) == 3

    def test_scans_automorphisms_once(self, monkeypatch):
        # the GLP(1) search and every k share one automorphism scan
        calls = []
        original = recognition.graph_automorphisms

        def counting(graph):
            calls.append(graph)
            return original(graph)

        monkeypatch.setattr(recognition, "graph_automorphisms", counting)
        p5 = SimpleGraph("abcde", list(zip("abcd", "bcde")))
        assert leaf_rank(p5) == 3
        assert len(calls) == 1

    def test_rank_is_minimal(self, rng):
        for _ in range(8):
            n = rng.randint(2, 5)
            vs = [f"v{i}" for i in range(n)]
            edges = [e for e in itertools.combinations(vs, 2) if rng.random() < 0.7]
            g = SimpleGraph(vs, edges)
            r = None
            try:
                r = leaf_rank(g)
            except CapacityError:
                continue
            if r is None:
                continue
            assert is_k_leaf_power(g, r) is not None
            if r > 1:
                assert is_k_leaf_power(g, r - 1) is None


class TestAutomorphisms:
    def test_c4_group_order(self):
        assert len(graph_automorphisms(C4)) == 8  # dihedral group of the square

    def test_matches_the_permutation_scan(self):
        # the same automorphisms in the same order as the n! scan
        nx = pytest.importorskip("networkx")
        graphs = [
            SimpleGraph(list(g.nodes), list(g.edges))
            for g in nx.graph_atlas_g()
            if g.number_of_nodes() <= 6
        ]
        graphs += [EDGELESS7, COMPLETE7, non_glp_family(2), CERT8_Q1, CERT8_Q2]
        sizes = []
        for graph in graphs:
            autos = graph_automorphisms(graph)
            assert autos == automorphisms_by_scan(graph), graph.edge_list()
            sizes.append(len(autos))
        assert sizes[-5:] == [5040, 5040, 128, 8, 2]

    def test_mask_tables_match_bitwise_reference(self):
        # the image of a mask, read from the other side when it holds leaf 0
        n = 5
        full = (1 << n) - 1
        perms = graph_automorphisms(SimpleGraph(range(n)))
        assert len(perms) == 120

        def image(perm, m):
            r = sum(1 << perm[j] for j in range(n) if m >> j & 1)
            return r ^ full if r & 1 else r

        reference = [[image(perm, m) for m in range(1 << n)] for perm in perms]
        images = [_MaskImages(perm, n) for perm in perms]
        assert [[table[m] for m in range(1 << n)] for table in images] == reference

    def test_orbit_filter_matches_its_definition(self):
        # the yielded topologies are, in order, those whose split key is the
        # least over their orbit under the graph's automorphisms
        nx = pytest.importorskip("networkx")
        graphs = [
            SimpleGraph(list(g.nodes), list(g.edges))
            for g in nx.graph_atlas_g()
            if 5 <= g.number_of_nodes() <= 6
        ]
        graphs += [EDGELESS7, COMPLETE7, non_glp_family(2), CERT8_Q1, CERT8_Q2]
        for graph in graphs:
            expected = orbit_representatives(graph)
            assert kept_by_orbit_filter(graph) == expected, graph.edge_list()

    def test_edgeless(self):
        g = SimpleGraph("abc")
        assert len(graph_automorphisms(g)) == 6


class TestLimits:
    def test_cap_for_is_per_q(self):
        # the default table, and one override at every q
        assert [RecognitionLimits().cap_for(q) for q in range(1, 7)] == [8, 8, 6, 5, 5, 5]
        assert {RecognitionLimits(max_leaves=4).cap_for(q) for q in range(1, 7)} == {4}
        g = SimpleGraph("abcde")
        for q in (1, 2, 3, 4):
            with pytest.raises(CapacityError):
                recognize_glp(g, q, RecognitionLimits(max_leaves=4))
        with pytest.raises(CapacityError):
            is_k_leaf_power(g, 2, RecognitionLimits(max_leaves=4))
        with pytest.raises(CapacityError):
            leaf_rank(g, RecognitionLimits(max_leaves=4))
        with pytest.raises(CapacityError):
            recognize_glp(SimpleGraph("abcdef"), 4)
        assert recognize_glp(SimpleGraph("abcdef"), 3) is not None


class TestSelfChecks:
    def test_leaf_rank_integerizes_once(self, monkeypatch):
        calls = []
        original = glp_core.integerize_certificate_info

        def counting(cert):
            calls.append(cert)
            return original(cert)

        monkeypatch.setattr(glp_core, "integerize_certificate_info", counting)
        p4 = SimpleGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
        assert leaf_rank(p4) == 3
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "search",
        [lambda: recognize_glp(C4, 2), lambda: is_k_leaf_power(SimpleGraph("ab"), 1)],
        ids=["recognize_glp", "is_k_leaf_power"],
    )
    def test_wrong_certificate_graph_raises(self, monkeypatch, search):
        monkeypatch.setattr(recognition, "graph_from_certificate", lambda cert: SimpleGraph("z"))
        with pytest.raises(InternalError):
            search()

    def test_wrong_certificate_graph_raises_under_optimize(self):
        code = (
            "assert False, 'asserts must be stripped: run with -O'\n"
            "from leafpower import InternalError, SimpleGraph, recognition\n"
            "recognition.graph_from_certificate = lambda cert: SimpleGraph('z')\n"
            "c4 = SimpleGraph('abcd', [('a', 'b'), ('b', 'c'), ('c', 'd'), ('d', 'a')])\n"
            "try:\n"
            "    recognition.recognize_glp(c4, 2)\n"
            "except InternalError:\n"
            "    print('InternalError')\n"
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": SRC},
        ).stdout
        assert out.strip() == "InternalError"


def count_orbit_work(monkeypatch):
    """Counters of the mask images the orbit filter computes and of the
    split keys it compares with an image, while the test runs."""
    counts = {"images": 0, "comparisons": 0}

    class CountingImages(recognition._MaskImages):
        __slots__ = ()

        def __missing__(self, m):
            counts["images"] += 1
            return super().__missing__(m)

        def sorts_below(self, key):
            counts["comparisons"] += 1
            return super().sorts_below(key)

    monkeypatch.setattr(recognition, "_MaskImages", CountingImages)
    return counts


def count_work(monkeypatch):
    """Counters, while the test runs, of the leaf placements the search
    plan's hook is called on, of the partial assignments it checks against
    quartets (one per placement the orbit filter keeps and one per region
    tried for a free pair),
    of the (topology, assignment) pairs ``iter_topologies`` yields and of
    the exact LPs ``_SearchPlan.solve`` runs on them."""
    counts = {"placements": 0, "assignments": 0, "topologies": 0, "lps": 0}
    topologies = recognition.iter_topologies
    plan_class = recognition._SearchPlan
    extend, passes, solve = plan_class.extend, plan_class._passes, plan_class.solve

    def counting_topologies(*args):
        for item in topologies(*args):
            counts["topologies"] += 1
            yield item

    def counting_extend(plan, *args):
        counts["placements"] += 1
        return extend(plan, *args)

    def counting_passes(plan, *args):
        counts["assignments"] += 1
        return passes(plan, *args)

    def counting_solve(plan, *args):
        counts["lps"] += 1
        return solve(plan, *args)

    monkeypatch.setattr(recognition, "iter_topologies", counting_topologies)
    monkeypatch.setattr(plan_class, "extend", counting_extend)
    monkeypatch.setattr(plan_class, "_passes", counting_passes)
    monkeypatch.setattr(plan_class, "solve", counting_solve)
    return counts


class TestOrbitFilter:
    def test_non_glp_family_2_search_count(self, monkeypatch):
        """Deterministic work counts of the leaf-insertion search.

        Every placement of the last leaf is cut by the orbit filter or by
        its quartets, so no (topology, assignment) pair comes out and no LP
        is needed (39,208 topologies and 688 region searches when each
        orbit representative searched its regions from scratch).  The
        placements of one graph share each quartet verdict, and equal
        region patterns share one decision, so from an empty cache the
        closed-form test runs 732 times (355,825 when every topology
        recomputed its own).  The orbit test compares a key only with the
        images of the automorphisms that can map one of its masks onto its
        first: 18,558 comparisons, where comparing each key that passes the
        least-image test with every automorphism made about 184,000."""
        counts = count_work(monkeypatch)
        orbit_work = count_orbit_work(monkeypatch)
        verdicts, lps = [], []
        can_be_le, find_feasible_point = recognition._can_be_le, exactlp.find_feasible_point

        def counting_can_be_le(lo, hi):
            verdicts.append(1)
            return can_be_le(lo, hi)

        def counting_lp(*args):
            lps.append(1)
            return find_feasible_point(*args)

        monkeypatch.setattr(recognition, "_can_be_le", counting_can_be_le)
        monkeypatch.setattr(exactlp, "find_feasible_point", counting_lp)
        recognition._checks_pass.cache_clear()
        assert recognize_glp(non_glp_family(2), 2) is None
        assert counts == {"placements": 25331, "assignments": 38918, "topologies": 0, "lps": 0}
        assert len(lps) == 0
        assert len(verdicts) < 1000
        assert orbit_work["comparisons"] < 40000

    @pytest.mark.parametrize("graph", [EDGELESS7, COMPLETE7], ids=["edgeless", "complete"])
    def test_symmetric_7_vertex_graphs_build_no_mask_image(self, monkeypatch, graph):
        # the first topology, the star, has an empty split key and succeeds,
        # so none of the 5,039 automorphisms ever maps a mask
        orbit_work = count_orbit_work(monkeypatch)
        assert recognize_glp(graph, 2) is not None
        assert orbit_work == {"images": 0, "comparisons": 0}

    def test_non_glp_family_2_builds_no_tree(self, monkeypatch):
        # the topologies come as edge leaf masks, so the search never walks
        # a tree to rebuild them (39,896 walks when it did)
        counts = count_work(monkeypatch)
        walks = []
        for module in (tree_metric, recognition, glp_core):
            if hasattr(module, "_leaf_masks"):
                original = module._leaf_masks

                def counting(*args, original=original):
                    walks.append(1)
                    return original(*args)

                monkeypatch.setattr(module, "_leaf_masks", counting)
        assert recognize_glp(non_glp_family(2), 2) is None
        assert len(walks) == 0
        assert counts == {"placements": 25331, "assignments": 38918, "topologies": 0, "lps": 0}

    def test_p8_q1_search_count(self, monkeypatch):
        # the forced-quartet cut leaves one topology, which succeeds;
        # without it every one of the 19,864 orbit representatives was searched
        counts = count_work(monkeypatch)
        assert recognize_glp(P8, 1) is not None
        assert counts == {"placements": 47, "assignments": 33, "topologies": 1, "lps": 1}

    def test_sun7_q1_search_count(self, monkeypatch):
        counts = count_work(monkeypatch)  # 1,436 searches without the cut
        assert recognize_glp(SUN7, 1) is None
        assert counts == {"placements": 886, "assignments": 496, "topologies": 1, "lps": 1}


def passes_every_quartet(masks, n, pairs):
    """Does the one q = 1 region assignment of this topology, 0 on an edge
    and 1 on a non-edge, pass every quartet check?  Each quartet's shape is
    read off the topology's splits, and its checks written out, outside the
    search plan: of its pair sums ab + cd, ac + bd and ad + bc, a split one
    is at most the other two, which are equal, and a star's are equal."""
    splits = split_key(_mask_edges(masks, n), n)
    for a, b, c, d in itertools.combinations(range(n), 4):
        pairings = (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c)))
        sums = [tuple(0 if p in pairs else 1 for p in pairing) for pairing in pairings]
        shape = quartet_shape((a, b, c, d), splits)
        if shape == 3:
            checks = list(itertools.permutations(range(3), 2))
        else:
            x, y = (i for i in range(3) if i != shape)
            checks = [(shape, x), (shape, y), (x, y), (y, x)]
        if not all(_can_be_le(sums[lo], sums[hi]) for lo, hi in checks):
            return False
    return True


class TestForcedQuartetCut:
    def test_cut_matches_the_quartet_checks(self):
        # seeded graphs on 5-7 vertices: every topology the cut drops is one
        # the q = 1 search rejects, and the kept ones are exactly those whose
        # fixed assignment passes every quartet check
        rng = random.Random(6)
        graphs = [SUN7, SimpleGraph("abcdef", list(zip("abcde", "bcdef")))]
        for n in (5, 6, 6, 7):
            vs = range(n)
            graphs.append(SimpleGraph(vs, [e for e in itertools.combinations(vs, 2) if rng.random() < 0.5]))
        dropped_total = 0
        for graph in graphs:
            plan = plan_without_orbits(graph, 1)
            n, pairs = plan.n, plan.edge_pairs
            reached = list(iter_topologies(n, plan.extend))
            assert {code for _, code in reached} <= {plan.forced_code}
            kept = {masks for masks, _ in reached}
            passing = set()
            for masks in iter_topologies(n):
                if masks not in kept:
                    dropped_total += 1
                    assert plan.solve(masks, plan.forced_code) is None
                if passes_every_quartet(masks, n, pairs):
                    passing.add(masks)
            assert kept == passing
        assert dropped_total > 0

    def test_graph_with_no_failing_quartet_gets_no_cut(self):
        # K5 at q = 1: no quartet is checked and every topology is reached
        plan = plan_without_orbits(SimpleGraph(range(5), itertools.combinations(range(5), 2)), 1)
        assert not any(checked for *_, checked in plan.steps)
        reached = list(iter_topologies(5, plan.extend))
        assert [masks for masks, _ in reached] == list(iter_topologies(5))
        assert {code for _, code in reached} == {plan.forced_code}

    def test_order_holds_only_the_free_pairs(self):
        # a forced pair is fixed once per leaf in the step's forced code,
        # never branched on; at q = 2 the 20 edges of non_glp_family(2) are
        # forced to region 1
        graph = non_glp_family(2)
        for q, free in ((1, 0), (2, 8), (3, 28)):
            plan = _SearchPlan(graph, q)
            branched = []
            for k, (forced, step_free, _, _) in enumerate(plan.steps):
                branched += [shift // plan.width for shift, _ in step_free]
                assert all(plan.pairs[shift // plan.width][1] == k for shift, _ in step_free)
            assert len(branched) == free and len(plan.pairs) == 28
            assert sum(forced for forced, *_ in plan.steps) == plan.forced_code
            for i, regions in enumerate(plan.allowed):
                assert (i in branched) == (len(regions) > 1)
                assert plan.region(plan.forced_code, i) == (regions[0] if len(regions) == 1 else 0)

    def test_nothing_is_cut_above_q1(self):
        # a forced quartet at q = 2 has six edges, all in region 1, and
        # equal regions pass every check; at q = 3 no pair is forced; so
        # every quartet the plan checks has a free pair
        nx = pytest.importorskip("networkx")
        graphs = [
            SimpleGraph(list(g.nodes), list(g.edges))
            for g in nx.graph_atlas_g()
            if g.number_of_nodes() <= 6
        ]
        graphs.append(SimpleGraph(range(8), itertools.combinations(range(8), 2)))
        for graph in graphs:
            for q in (2, 3):
                plan = _SearchPlan(graph, q)
                for _, _, checks, _ in plan.steps:
                    for quartets in checks:
                        for _, qmask, _, _ in quartets:  # qmask 0: its six pairs are forced
                            free = [regions for i, regions in enumerate(plan.allowed) if qmask >> i * plan.width & 1]
                            assert any(len(regions) > 1 for regions in free), (q, graph.edge_list())

    def test_leaf_rank_builds_one_plan(self, monkeypatch):
        # the GLP(1) search and every k-leaf search share the q = 1 plan
        plans = []

        class CountingPlan(recognition._SearchPlan):
            def __init__(self, *args):
                plans.append(args)
                super().__init__(*args)

        monkeypatch.setattr(recognition, "_SearchPlan", CountingPlan)
        assert leaf_rank(P8) == 3
        assert len(plans) == 1


# G(9, 0.5) with a trivial automorphism group; each orbit representative
# ran its own region search from scratch, 13-17 s in all
G9 = SimpleGraph(range(9), [(int(e[0]), int(e[1])) for e in (
    "01 02 03 04 05 08 12 15 18 24 25 27 34 37 38 45 47 56 57 68 78".split())])
NINE = RecognitionLimits(max_leaves=9)


class TestNineVertices:
    def test_random_graph_at_q2(self, monkeypatch):
        counts = count_work(monkeypatch)
        cert = recognize_glp(G9, 2, NINE)
        assert cert is not None and verify_certificate(G9, cert)
        assert counts == {"placements": 18614, "assignments": 71470, "topologies": 1, "lps": 1}

    def test_non_glp_family_2_plus_an_isolated_vertex_at_q2(self, monkeypatch):
        family = non_glp_family(2)
        graph = SimpleGraph(list(family.vertices) + ["iso"], family.edge_list())
        counts = count_work(monkeypatch)
        assert recognize_glp(graph, 2, NINE) is None
        assert counts == {"placements": 25331, "assignments": 115851, "topologies": 0, "lps": 0}


# sha256 of the q = 1 outputs below, first computed before the search
# became one leaf-insertion recursion
Q1_DIGEST = "cc96b4955926be0d24d4bb64f7d215c62e0b857684f92eb486673e0cbee4c857"


def test_q1_outputs_are_pinned(monkeypatch):
    """One sha256 over the certificate JSON and exact-LP calls of
    ``recognize_glp`` at q = 1 on the 208 atlas graphs with 1-6 vertices,
    then the roots of ``is_k_leaf_power`` at k = 1..3 and ``leaf_rank`` on
    those with at most 5.  A change that alters any of them re-pins it."""
    nx = pytest.importorskip("networkx")
    calls = []
    find_feasible_point = exactlp.find_feasible_point

    def counting_lp(*args):
        calls.append(1)
        return find_feasible_point(*args)

    monkeypatch.setattr(exactlp, "find_feasible_point", counting_lp)
    atlas = [SimpleGraph(list(g.nodes), list(g.edges)) for g in nx.graph_atlas_g() if 1 <= g.number_of_nodes() <= 6]
    assert len(atlas) == 208
    items = []
    for graph in atlas:
        calls.clear()
        cert = recognize_glp(graph, 1)
        items.append(["glp1", graph.to_json(), cert.to_json() if cert else None, len(calls)])
    for graph in (g for g in atlas if len(g) <= 5):
        for k in (1, 2, 3):
            tree = is_k_leaf_power(graph, k)
            items.append(["k", graph.to_json(), k, tree.to_json() if tree else None])
        items.append(["rank", graph.to_json(), leaf_rank(graph)])
    assert hashlib.sha256(json.dumps(items).encode()).hexdigest() == Q1_DIGEST


def test_one_vertex_outputs_are_pinned():
    """The searches on one vertex, and the TOC oracle on one element: the
    tree is the lone leaf, the thresholds are 1..q and the leaf rank is 1."""
    graph = SimpleGraph(["a"])
    lone = '{"edges": [], "leaves": {"a": "a"}, "vertices": ["a"]}'
    for q in (1, 2, 3, 4):
        thresholds = json.dumps([str(t) for t in range(1, q + 1)])
        assert recognize_glp(graph, q).to_json() == f'{{"thresholds": {thresholds}, "tree": {lone}}}'
    for k in (1, 2, 3):
        assert is_k_leaf_power(graph, k).to_json() == lone
    assert leaf_rank(graph) == 1
    assert toc_realizability_small(TocInstance(("a",), {})).to_json() == lone
