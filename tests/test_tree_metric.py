import heapq
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafpower import (
    VIOLATION,
    DegenerateTreeError,
    LabelNotFoundError,
    MalformedMetricError,
    MalformedTreeError,
    WeightedTree,
    check_split_lemma,
    check_twins_lemma,
    classify_leaf_quartet,
    contract_degree_two,
    diameter,
    distance,
    four_point_classify,
    restrict_to_leaves,
)
from leafpower import tree_metric

from conftest import random_weighted_tree


def dijkstra_oracle(tree, src):
    """Independent all-pairs check: generic shortest path, no tree assumptions."""
    dist = {src: Fraction(0)}
    heap = [(Fraction(0), id(src), src)]
    while heap:
        d, _, u = heapq.heappop(heap)
        if d > dist.get(u, None if u not in dist else dist[u]):
            continue
        for v, w in tree.neighbors(u).items():
            nd = d + w
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, id(v), v))
    return dist


class TestWeightedTree:
    def test_path_sum(self):
        t = WeightedTree([("a", "m", 2), ("m", "b", 3)], {"a": "a", "b": "b"})
        assert distance(t, "a", "b") == 5
        assert distance(t, "a", "a") == 0
        assert distance(t, "b", "a") == 5

    def test_unknown_label(self):
        t = WeightedTree([("a", "b", 1)], {"a": "a", "b": "b"})
        with pytest.raises(LabelNotFoundError):
            t.distance("a", "zzz")

    def test_rejects_cycle(self):
        with pytest.raises(MalformedTreeError):
            WeightedTree(
                [("a", "b", 1), ("b", "c", 1), ("c", "a", 1)], {"a": "a"}
            )

    def test_rejects_disconnected(self):
        with pytest.raises(MalformedTreeError):
            WeightedTree(
                [("a", "b", 1), ("c", "d", 1)], {"a": "a", "b": "b"},
                vertices=["a", "b", "c", "d"],
            )

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(MalformedTreeError):
            WeightedTree([("a", "b", 0)], {"a": "a", "b": "b"})

    def test_rejects_internal_label(self):
        with pytest.raises(MalformedTreeError):
            WeightedTree(
                [("a", "m", 1), ("m", "b", 1)], {"a": "a", "m": "m"}
            )

    def test_distance_matrix_vs_dijkstra(self):
        rng = random.Random(12)
        for _ in range(25):
            t = random_weighted_tree(rng, 12)
            for src in t.labels():
                oracle = dijkstra_oracle(t, t.vertex_of(src))
                for dst in t.labels():
                    assert t.distance(src, dst) == oracle[t.vertex_of(dst)]

    def test_vertex_distance_walks_once_per_source(self, monkeypatch):
        calls = []
        distances = tree_metric._distances

        def counting(adj, source):
            calls.append(source)
            return distances(adj, source)

        monkeypatch.setattr(tree_metric, "_distances", counting)
        t = random_weighted_tree(random.Random(5), 8)
        vertices = t.vertices
        sources = vertices[:2]
        for k in range(100):
            u = sources[k % 2]
            v = vertices[k % len(vertices)]
            assert t.vertex_distance(u, v) == dijkstra_oracle(t, u)[v]
        assert sorted(calls) == sorted(sources)

    def test_diameter_star(self):
        t = WeightedTree(
            [("c", "a", 1), ("c", "b", 2), ("c", "d", 3)],
            {"a": "a", "b": "b", "d": "d"},
        )
        assert diameter(t) == 5

    def test_diameter_single_edge(self):
        t = WeightedTree([("a", "b", 7)], {"a": "a", "b": "b"})
        assert t.diameter() == 7

    def test_diameter_needs_two_leaves(self):
        t = WeightedTree([], {"a": "a"}, vertices=["a"])
        with pytest.raises(DegenerateTreeError):
            t.diameter()

    def test_json_round_trip(self):
        rng = random.Random(3)
        t = random_weighted_tree(rng, 7)
        assert WeightedTree.from_json(t.to_json()) == t


class TestFourPoint:
    def test_unit_star_case4(self):
        t = WeightedTree(
            [("c", x, 1) for x in "wxyz"], {x: x for x in "wxyz"}
        )
        verdict = classify_leaf_quartet(t, "w", "x", "y", "z")
        assert verdict.case_id == 4
        assert verdict.sums == (4, 4, 4)

    def test_quartet_tree_split(self):
        # ((a1,a2),(b1,b2)) with internal edge: cross sums tie and dominate
        t = WeightedTree(
            [
                ("p", "a1", 1), ("p", "a2", 1),
                ("q", "b1", 1), ("q", "b2", 1),
                ("p", "q", 5),
            ],
            {k: k for k in ("a1", "a2", "b1", "b2")},
        )
        verdict = classify_leaf_quartet(t, "a1", "a2", "b1", "b2")
        assert verdict.case_id == 3  # the two cross sums are equal and larger
        s1, s2, s3 = verdict.sums
        assert s2 == s3 > s1

    def test_planar_square_violation(self):
        diag = Fraction(1415, 1000)
        pts = "abcd"
        d = {}
        coords = {"a": 0, "b": 1, "c": 2, "d": 3}
        for p, q in itertools.product(pts, repeat=2):
            if p == q:
                d[(p, q)] = Fraction(0)
            elif (coords[p] - coords[q]) % 2 == 0:
                d[(p, q)] = diag
            else:
                d[(p, q)] = Fraction(1)
        verdict = four_point_classify(d, points=("a", "b", "c", "d"))
        assert verdict.case_id == VIOLATION

    def test_asymmetric_rejected(self):
        d = {("a", "b"): 1, ("b", "a"): 2}
        with pytest.raises(MalformedMetricError):
            four_point_classify(d, points=("a", "b", "c", "d"))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**9), n=st.integers(4, 9))
    def test_tree_quartets_never_violate(self, seed, n):
        t = random_weighted_tree(random.Random(seed), n)
        leaves = t.labels()
        for quad in itertools.combinations(leaves, 4):
            assert classify_leaf_quartet(t, *quad).case_id in (1, 2, 3, 4)


class TestLemmas:
    def _caterpillar(self):
        # x --- Ma --- Mb --- y with a1,a2 off Ma and b1,b2 off Mb
        return WeightedTree(
            [
                ("Ma", "x", 1), ("Ma", "a1", 2), ("Ma", "a2", 3),
                ("Ma", "Mb", 10),
                ("Mb", "b1", 2), ("Mb", "b2", 5), ("Mb", "y", 1),
            ],
            {k: k for k in ("x", "y", "a1", "a2", "b1", "b2")},
        )

    def test_split_configuration(self):
        t = self._caterpillar()
        assert check_split_lemma(t, "a1", "a2", "b1", "b2", "x", "y")
        lhs = t.distance("a1", "b1") + t.distance("a2", "b2")
        rhs = t.distance("a1", "b2") + t.distance("a2", "b1")
        assert lhs == rhs

    def test_split_x_equals_y_false(self):
        t = self._caterpillar()
        assert not check_split_lemma(t, "a1", "a2", "b1", "b2", "x", "x")

    def test_twins_configuration(self):
        # x sits on the branch joining a2 to the subtree of a1, b, c
        t = WeightedTree(
            [
                ("m", "a2", 1), ("m", "x", 2), ("m", "n", 2),
                ("n", "a1", 1), ("n", "p", 3),
                ("p", "b", 1), ("p", "c", 5),
            ],
            {k: k for k in ("x", "a1", "a2", "b", "c")},
        )
        assert check_twins_lemma(t, "a1", "a2", "b", "c", "x")
        assert t.distance("a2", "b") < t.distance("a2", "c")

    def test_twins_b_equals_c_false(self):
        t = self._caterpillar()
        assert not check_twins_lemma(t, "a1", "a2", "b1", "b1", "x")

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_lemma_implications_fuzz(self, seed):
        rng = random.Random(seed)
        t = random_weighted_tree(rng, rng.randint(6, 10))
        leaves = list(t.labels())
        for _ in range(40):
            a1, a2, b1, b2, x, y = rng.sample(leaves, 6)
            if check_split_lemma(t, a1, a2, b1, b2, x, y):
                assert t.distance(a1, b1) + t.distance(a2, b2) == t.distance(
                    a1, b2
                ) + t.distance(a2, b1)
            a1, a2, b, c, x = rng.sample(leaves, 5)
            if check_twins_lemma(t, a1, a2, b, c, x):
                assert t.distance(a2, b) < t.distance(a2, c)


class TestNormalization:
    def test_contract_simple(self):
        t = WeightedTree(
            [("a", "u", 2), ("u", "b", 3)], {"a": "a", "b": "b"}
        )
        c = contract_degree_two(t)
        assert len(c.vertices) == 2
        assert c.distance("a", "b") == 5

    def test_contract_identity(self):
        t = WeightedTree(
            [("c", x, 1) for x in "abd"], {x: x for x in "abd"}
        )
        assert contract_degree_two(t) == t

    def test_contract_preserves_distances_and_size(self):
        rng = random.Random(99)
        for _ in range(30):
            t = random_weighted_tree(rng, rng.randint(4, 10))
            # subdivide a few edges to create degree-2 vertices
            edges = list(t.edges)
            extra = []
            for i, (u, v, w) in enumerate(edges):
                if rng.random() < 0.5:
                    mid = f"sub{i}"
                    extra.append((u, mid, w / 3))
                    extra.append((mid, v, w - w / 3))
                else:
                    extra.append((u, v, w))
            sub = WeightedTree(extra, t.leaf_labels)
            c = contract_degree_two(sub)
            n = len(t.labels())
            assert len(c.vertices) <= 2 * n - 1
            for a, b in itertools.combinations(t.labels(), 2):
                assert c.distance(a, b) == t.distance(a, b)

    def test_restrict_all_is_contract(self):
        rng = random.Random(5)
        t = random_weighted_tree(rng, 6)
        assert restrict_to_leaves(t, set(t.labels())) == contract_degree_two(t)

    def test_restrict_star_pair(self):
        t = WeightedTree(
            [("c", "a", 1), ("c", "b", 2), ("c", "d", 4)],
            {"a": "a", "b": "b", "d": "d"},
        )
        r = restrict_to_leaves(t, {"a", "b"})
        assert len(r.vertices) == 2
        assert r.distance("a", "b") == 3

    def test_restrict_preserves_distances(self):
        rng = random.Random(17)
        for _ in range(20):
            t = random_weighted_tree(rng, 9)
            subset = rng.sample(list(t.labels()), 4)
            r = restrict_to_leaves(t, set(subset))
            assert set(r.labels()) == set(subset)
            for a, b in itertools.combinations(subset, 2):
                assert r.distance(a, b) == t.distance(a, b)

    def test_restrict_too_small(self):
        t = WeightedTree([("a", "b", 1)], {"a": "a", "b": "b"})
        with pytest.raises(DegenerateTreeError):
            restrict_to_leaves(t, {"a"})
