import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafpower import (
    CertificateLabelMismatch,
    GlpCertificate,
    InternalError,
    MalformedGraphError,
    SimpleGraph,
    ThresholdSequence,
    WeightedTree,
    complement,
    disjoint_union,
    graph_from_certificate,
    integerize_certificate,
    integerize_certificate_info,
    is_chordal,
    verify_certificate,
)
from leafpower import exactlp

from conftest import random_certificate, random_weighted_tree


def star(weights, theta):
    edges = [("hub", lbl, w) for lbl, w in weights.items()]
    tree = WeightedTree(edges, {lbl: lbl for lbl in weights})
    return GlpCertificate(tree, ThresholdSequence(tuple(theta)))


K4_CERT = star({x: 1 for x in "abcd"}, (2,))


class TestSimpleGraph:
    def test_no_loops(self):
        with pytest.raises(MalformedGraphError):
            SimpleGraph("ab", [("a", "a")])

    def test_unknown_endpoint(self):
        with pytest.raises(MalformedGraphError):
            SimpleGraph("ab", [("a", "c")])

    def test_json_round_trip(self):
        g = SimpleGraph("abcd", [("a", "b"), ("c", "d")])
        assert SimpleGraph.from_json(g.to_json()) == g

    def test_complement_k4(self):
        k4 = SimpleGraph("abcd", itertools.combinations("abcd", 2))
        assert complement(k4).edge_list() == []

    def test_complement_involution(self):
        rng = random.Random(8)
        for _ in range(20):
            vertices = [f"v{i}" for i in range(rng.randint(1, 7))]
            edges = [
                e for e in itertools.combinations(vertices, 2) if rng.random() < 0.5
            ]
            g = SimpleGraph(vertices, edges)
            assert complement(complement(g)) == g

    def test_union_tags(self):
        g = SimpleGraph("ab", [("a", "b")])
        u = disjoint_union(g, g)
        assert sorted(u.vertices) == ["a#1", "a#2", "b#1", "b#2"]
        assert u.has_edge("a#1", "b#1") and u.has_edge("a#2", "b#2")
        assert not u.has_edge("a#1", "b#2")


class TestParityRule:
    def test_star_k4(self):
        assert graph_from_certificate(K4_CERT) == SimpleGraph(
            "abcd", itertools.combinations("abcd", 2)
        )

    def test_far_pair_edgeless(self):
        cert = star({"a": 10, "b": 10}, (1,))
        assert graph_from_certificate(cert).edge_list() == []

    def test_q2_band_gives_cycle(self):
        cert = star({"a": 1, "b": 1, "c": 2, "d": 2}, (2, 3))
        g = graph_from_certificate(cert)
        want = SimpleGraph("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
        assert g == want  # 4-cycle a-c-b-d-a

    def test_closed_comparison_at_threshold(self):
        # distance exactly equal to the threshold counts as inside
        cert = star({"a": 1, "b": 1}, (2,))
        assert graph_from_certificate(cert).has_edge("a", "b")

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**9), scale=st.integers(1, 50))
    def test_uniform_scaling_invariant(self, seed, scale):
        cert = random_certificate(random.Random(seed), max_leaves=6)
        scaled = GlpCertificate(
            cert.tree.scaled(scale),
            ThresholdSequence(tuple(t * scale for t in cert.thresholds.thresholds)),
        )
        assert graph_from_certificate(scaled) == graph_from_certificate(cert)


class TestVerify:
    def test_k4_pass(self):
        k4 = SimpleGraph("abcd", itertools.combinations("abcd", 2))
        assert verify_certificate(k4, K4_CERT)

    def test_c4_fail(self):
        c4 = SimpleGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        assert not verify_certificate(c4, K4_CERT)

    def test_label_mismatch_distinct_diagnostic(self):
        g = SimpleGraph("abcde", [])
        with pytest.raises(CertificateLabelMismatch):
            verify_certificate(g, K4_CERT)

    def test_round_trip_property(self, rng):
        for _ in range(50):
            cert = random_certificate(rng)
            assert verify_certificate(graph_from_certificate(cert), cert)


def merged_order_pattern(cert):
    """Strict/equal pattern of the sorted merged distances+thresholds list."""
    leaves = cert.tree.labels()
    values = [cert.tree.distance(a, b) for a, b in itertools.combinations(leaves, 2)]
    values += list(cert.thresholds.thresholds)
    tagged = sorted(range(len(values)), key=lambda i: values[i])
    pattern = []
    for i, j in zip(tagged, tagged[1:]):
        pattern.append("=" if values[i] == values[j] else "<")
    return tagged, pattern


class TestIntegerize:
    def test_half_weights(self):
        tree = WeightedTree(
            [("a", "m", Fraction(1, 2)), ("m", "b", Fraction(3, 2))],
            {"a": "a", "b": "b"},
        )
        cert = GlpCertificate(tree, ThresholdSequence((2,)))
        out = integerize_certificate(cert)
        assert all(w.denominator == 1 for _, _, w in out.tree.edges)
        assert all(t.denominator == 1 for t in out.thresholds.thresholds)
        assert graph_from_certificate(out) == graph_from_certificate(cert)

    def test_integer_input_stays_equivalent(self):
        cert = star({"a": 1, "b": 2, "c": 3}, (4,))
        out = integerize_certificate(cert)
        assert graph_from_certificate(out) == graph_from_certificate(cert)
        assert merged_order_pattern(out)[1] == merged_order_pattern(cert)[1]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_order_pattern_preserved(self, seed):
        cert = random_certificate(random.Random(seed), max_leaves=8, max_q=3)
        out = integerize_certificate(cert)
        assert graph_from_certificate(out) == graph_from_certificate(cert)
        order_in, pattern_in = merged_order_pattern(cert)
        order_out, pattern_out = merged_order_pattern(out)
        assert order_in == order_out
        assert pattern_in == pattern_out
        assert all(w.denominator == 1 and w >= 1 for _, _, w in out.tree.edges)
        assert all(t.denominator == 1 for t in out.thresholds.thresholds)

    def test_basic_point_weight_bound(self, rng):
        hits = 0
        for _ in range(200):
            cert = random_certificate(rng, max_leaves=7, max_q=2)
            result = integerize_certificate_info(cert)
            if result.basic:
                hits += 1
                m = len(result.certificate.tree.edges)
                bound = Fraction(m) ** Fraction(m, 2)
                for _, _, w in result.certificate.tree.edges:
                    assert w <= bound
        assert hits > 0  # the bound must actually get exercised

    def test_infeasible_separation_system_raises(self, monkeypatch):
        # an LP answer of "infeasible" here is a bug, not a reason to fall back
        monkeypatch.setattr(exactlp, "find_feasible_point", lambda *args: None)
        with pytest.raises(InternalError):
            integerize_certificate_info(K4_CERT)


def brute_force_chordal(graph):
    """Independent oracle: search for an induced cycle of length >= 4."""
    vertices = graph.vertices
    for size in range(4, len(vertices) + 1):
        for subset in itertools.combinations(vertices, size):
            sub_edges = [
                (u, v)
                for u, v in itertools.combinations(subset, 2)
                if graph.has_edge(u, v)
            ]
            if len(sub_edges) != size:
                continue
            deg = {v: 0 for v in subset}
            for u, v in sub_edges:
                deg[u] += 1
                deg[v] += 1
            if all(d == 2 for d in deg.values()):
                # connected 2-regular induced subgraph = induced cycle
                seen = {subset[0]}
                frontier = [subset[0]]
                adj = {v: [] for v in subset}
                for u, v in sub_edges:
                    adj[u].append(v)
                    adj[v].append(u)
                while frontier:
                    u = frontier.pop()
                    for v in adj[u]:
                        if v not in seen:
                            seen.add(v)
                            frontier.append(v)
                if len(seen) == size:
                    return False
    return True


class TestChordal:
    def test_c4(self):
        c4 = SimpleGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        assert not is_chordal(c4)

    def test_complete(self):
        for n in range(1, 7):
            vs = [f"v{i}" for i in range(n)]
            assert is_chordal(SimpleGraph(vs, itertools.combinations(vs, 2)))

    def test_against_induced_cycle_oracle(self):
        rng = random.Random(31)
        for _ in range(120):
            n = rng.randint(2, 7)
            vs = [f"v{i}" for i in range(n)]
            edges = [e for e in itertools.combinations(vs, 2) if rng.random() < 0.5]
            g = SimpleGraph(vs, edges)
            assert is_chordal(g) == brute_force_chordal(g)
