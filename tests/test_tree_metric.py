import heapq
import itertools
import operator
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
    four_point_classify,
    parse_rational,
    restrict_to_leaves,
)
from leafpower import exactlp, tree_metric

from conftest import random_weighted_tree, restrict_by_pruning, subdivided


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
        assert t.distance("a", "b") == 5
        assert t.distance("a", "a") == 0
        assert t.distance("b", "a") == 5

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
        assert t.diameter() == 5

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

    @pytest.mark.parametrize(
        "data",
        [
            {"vertices": ["a", 1], "edges": [["a", 1, "1"]], "leaves": {"a": "a", "b": 1}},
            {"edges": [["a", 1, "1"]], "leaves": {"a": "a", "b": 1}},
            {"edges": [["a", "b", "1"]], "leaves": {"a": "a", "b": ["b"]}},
        ],
    )
    def test_json_rejects_non_string_names(self, data):
        with pytest.raises(MalformedTreeError, match="not a string"):
            WeightedTree.from_json_dict(data)


class TestParseRational:
    @pytest.mark.parametrize("text, value", [("3/4", Fraction(3, 4)), (" -2 ", Fraction(-2)), ("1.25", Fraction(5, 4))])
    def test_accepts_fractions_and_decimals(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", ["1/0", "0/0", "1e10000000", "2.5E-1"])
    def test_rejects_zero_denominators_and_exponents(self, text):
        # an exponent is rejected before any work: "1e10000000" would be a
        # 33-Mbit integer
        with pytest.raises(ValueError, match=repr(text)):
            parse_rational(text)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            parse_rational(0.5)


class TestDistanceRow:
    def test_row_holds_exactly_when_the_distances_do(self):
        # at x_e = w_e - 1 the row of d(hi) - d(lo) rel rhs holds exactly
        # when the inequality does, on rational weights below 1 as well
        holds = {exactlp.GE: operator.ge, exactlp.LE: operator.le, exactlp.EQ: operator.eq}
        rng = random.Random(25)
        for _ in range(40):
            t = random_weighted_tree(rng, rng.randint(2, 9))
            labels = t.labels()
            masks = tree_metric._leaf_masks([(u, v) for u, v, _ in t.edges], [t.vertex_of(a) for a in labels])
            paths = tree_metric._leaf_paths(masks, len(labels))
            x = [w - 1 for _, _, w in t.edges]
            pairs = list(paths) + [None]  # None: the empty path, distance 0
            for _ in range(20):
                hi, lo = rng.choice(pairs), rng.choice(pairs)
                d_hi = t.distance(labels[hi[0]], labels[hi[1]]) if hi else 0
                d_lo = t.distance(labels[lo[0]], labels[lo[1]]) if lo else 0
                diff = d_hi - d_lo
                for rel, rhs in itertools.product(holds, (diff - 1, diff, diff + Fraction(1, 3))):
                    coeffs, row_rel, row_rhs = tree_metric._distance_row(
                        paths[hi] if hi else (), paths[lo] if lo else (), rel, rhs
                    )
                    assert row_rel == rel and 0 not in coeffs.values()
                    lhs = sum(c * x[k] for k, c in coeffs.items())
                    assert holds[rel](lhs, row_rhs) == holds[rel](diff, rhs)

    def test_lp_weights_read_back_w(self):
        assert tree_metric._lp_weights([Fraction(0), Fraction(1, 2), Fraction(7)], 2) == [1, Fraction(3, 2)]


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

    def test_leaf_quartet_matches_matrix_classifier(self):
        # classify_leaf_quartet reads its pair sums straight off the tree's
        # matrix; in every ordering it agrees with the validating classifier
        t = random_weighted_tree(random.Random(8), 6)
        for quad in itertools.permutations(t.labels(), 4):
            assert classify_leaf_quartet(t, *quad) == four_point_classify(t.distance_matrix(), quad)

    def test_leaf_quartet_needs_distinct_leaves(self):
        t = WeightedTree([("c", x, 1) for x in "wxyz"], {x: x for x in "wxyz"})
        with pytest.raises(MalformedMetricError, match="4 distinct points"):
            classify_leaf_quartet(t, "w", "w", "y", "z")

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
        c = restrict_to_leaves(t, t.labels())
        assert len(c.vertices) == 2
        assert c.distance("a", "b") == 5

    def test_contract_identity(self):
        t = WeightedTree(
            [("c", x, 1) for x in "abd"], {x: x for x in "abd"}
        )
        assert restrict_to_leaves(t, t.labels()) == t

    def test_contract_preserves_distances_and_size(self):
        rng = random.Random(99)
        for _ in range(30):
            t = random_weighted_tree(rng, rng.randint(4, 10))
            c = restrict_to_leaves(subdivided(rng, t), t.labels())
            n = len(t.labels())
            assert len(c.vertices) <= 2 * n - 1
            for a, b in itertools.combinations(t.labels(), 2):
                assert c.distance(a, b) == t.distance(a, b)

    def test_restrict_all_is_contract(self):
        rng = random.Random(5)
        t = random_weighted_tree(rng, 6)
        assert restrict_to_leaves(t, set(t.labels())) == restrict_by_pruning(t, t.labels()) == t

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

    def test_restrict_matches_pruning(self):
        # every subset size of subdivided random trees, vertex names included
        rng = random.Random(2024)
        for _ in range(40):
            t = subdivided(rng, random_weighted_tree(rng, rng.randint(2, 9)))
            labels = t.labels()
            for size in range(2, len(labels) + 1):
                for _ in range(3):
                    subset = rng.sample(labels, size)
                    r, ref = restrict_to_leaves(t, subset), restrict_by_pruning(t, subset)
                    assert r == ref and r.vertices == ref.vertices

    def test_restrict_too_small(self):
        t = WeightedTree([("a", "b", 1)], {"a": "a", "b": "b"})
        with pytest.raises(DegenerateTreeError):
            restrict_to_leaves(t, {"a"})

    def test_restrict_repeated_label_is_too_small(self):
        # a label given twice is still one leaf
        t = WeightedTree([("a", "b", 1)], {"a": "a", "b": "b"})
        with pytest.raises(DegenerateTreeError):
            restrict_to_leaves(t, ["a", "a"])
