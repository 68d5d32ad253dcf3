import itertools
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from leafpower import (
    CapacityError,
    InternalError,
    RecognitionLimits,
    SimpleGraph,
    cert_lift,
    enumerate_topologies,
    graph_from_certificate,
    is_chordal,
    is_k_leaf_power,
    leaf_rank,
    non_glp_family,
    recognize_glp,
    verify_certificate,
)
from leafpower import exactlp, glp_core, recognition
from leafpower.recognition import (
    _STAR_CHECKS,
    _TopologySearch,
    _can_be_le,
    _permute_mask_tables,
    _quartet_structures,
    _split_key,
    graph_automorphisms,
    iter_topologies,
)
from leafpower.tree_metric import _leaf_masks

from conftest import random_certificate

SRC = str(Path(__file__).resolve().parent.parent / "src")
C4 = SimpleGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])

# number of series-reduced trees on n labeled leaves (total partitions
# of an (n-1)-set; standard combinatorial sequence)
KNOWN_COUNTS = {2: 1, 3: 1, 4: 4, 5: 26, 6: 236, 7: 2752}


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


class TestTopologies:
    def test_single_edge(self):
        cat = enumerate_topologies(2)
        assert cat.n_leaves == 2
        assert len(cat.topologies) == 1

    def test_n4_hand_count(self):
        # one star plus the three labeled pairings of the quartet shape
        cat = enumerate_topologies(4)
        assert len(cat.topologies) == 4
        internal_edge_counts = sorted(
            sum(1 for u, v in t if u >= 4 and v >= 4) for t in cat.topologies
        )
        assert internal_edge_counts == [0, 1, 1, 1]

    @pytest.mark.parametrize("n", sorted(KNOWN_COUNTS))
    def test_counts_and_uniqueness(self, n):
        keys = set()
        count = 0
        for edges in iter_topologies(n):
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
        assert count == KNOWN_COUNTS[n]

    def test_max_internal_filter(self):
        cat = enumerate_topologies(5, max_internal=1)
        assert len(cat.topologies) == 1  # only the star survives

    def test_capacity(self):
        with pytest.raises(CapacityError):
            enumerate_topologies(15)

    def test_no_leaves_is_a_value_error(self):
        with pytest.raises(ValueError):
            enumerate_topologies(0)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_split_key_matches_oracle(self, n):
        for edges in iter_topologies(n):
            key = _split_key(edges, n)
            sides = frozenset(frozenset(i for i in range(n) if m >> i & 1) for m in key)
            assert len(sides) == len(key)
            assert sides == split_key(edges, n)

    def test_quartet_shapes_match_oracle(self):
        # a quartet is a star exactly when no split cuts it 2|2; otherwise
        # its split grouping comes first
        n = 7
        quartets = stars = 0
        for edges in iter_topologies(n):
            splits = split_key(edges, n)
            structures = _quartet_structures(n, _leaf_masks(edges, range(n)))
            for quartet, (groupings, checks) in zip(
                itertools.combinations(range(n), 4), structures
            ):
                cuts = [side & set(quartet) for side in splits]
                cuts = [cut for cut in cuts if len(cut) == 2]
                quartets += 1
                if cuts:
                    assert checks is not _STAR_CHECKS
                    assert set(groupings[0][0]) in cuts or set(groupings[0][1]) in cuts
                else:
                    assert checks is _STAR_CHECKS
                    stars += 1
        assert (stars, quartets) == (13580, 96320)


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
        c5 = SimpleGraph("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")])
        for g in (C4, c5):
            assert not is_chordal(g)
            assert recognize_glp(g, 1) is None
            n = len(g)
            index = {v: i for i, v in enumerate(g.vertices)}
            edges_idx = {
                tuple(sorted((index[u], index[v]))) for u, v in g.edge_list()
            }
            found = False
            for edges in iter_topologies(n):
                if _TopologySearch(edges, n, edges_idx, 1).search():
                    found = True
                    break
            assert not found

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


def own_topology(cert):
    """The certificate's tree as a topology over leaf indices, and the
    index pairs of its induced graph's edges."""
    labels = cert.tree.labels()
    ids = {cert.tree.vertex_of(a): i for i, a in enumerate(labels)}
    for v in cert.tree.vertices:
        ids.setdefault(v, len(ids))
    edges = tuple(sorted(tuple(sorted((ids[u], ids[v]))) for u, v, _ in cert.tree.edges))
    graph = graph_from_certificate(cert)
    index = {v: i for i, v in enumerate(graph.vertices)}
    assert [index[a] for a in labels] == list(range(len(labels)))
    pairs = {tuple(sorted((index[u], index[v]))) for u, v in graph.edge_list()}
    return edges, len(labels), pairs


class TestQuartetPruning:
    def test_own_topology_is_never_pruned(self):
        # the search on the topology of a valid certificate must find an
        # assignment: pruning only removes assignments no tree realizes
        rng = random.Random(0xC0FFEE)
        searched = 0
        while searched < 200:
            cert = random_certificate(rng, max_leaves=7, max_q=3)
            if cert.order < 2 or len(cert.tree.labels()) < 4:
                continue
            searched += 1
            edges, n, pairs = own_topology(cert)
            assert _TopologySearch(edges, n, pairs, cert.order).search() is not None

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
    from leafpower.recognition import _pair_paths

    pairs = list(itertools.combinations(range(n), 2))
    achievable = set()
    for edges in iter_topologies(n):
        m = len(edges)
        paths = _pair_paths(edges, n)
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

    def test_mask_tables_match_bitwise_reference(self):
        n = 5
        perms = graph_automorphisms(SimpleGraph(range(n)))
        assert len(perms) == 120
        reference = [
            [sum(1 << perm[j] for j in range(n) if m >> j & 1) for m in range(1 << n)]
            for perm in perms
        ]
        assert _permute_mask_tables(perms, n) == reference

    def test_edgeless(self):
        g = SimpleGraph("abc")
        assert len(graph_automorphisms(g)) == 6


class TestLimits:
    def test_cap_for_is_per_q(self):
        g = SimpleGraph("abcde")
        with pytest.raises(CapacityError):
            recognize_glp(g, 2, RecognitionLimits(max_leaves_q2=4))
        assert recognize_glp(g, 1, RecognitionLimits(max_leaves_q2=4)) is not None


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


class TestOrbitFilter:
    def test_non_glp_family_2_search_count(self, monkeypatch):
        """Deterministic work counts of the orbit-filtered topology loop."""
        counts = {"topologies": 0, "searches": 0}
        topologies = recognition.iter_topologies

        def counting_topologies(n):
            for edges in topologies(n):
                counts["topologies"] += 1
                yield edges

        class CountingSearch(recognition._TopologySearch):
            def __init__(self, *args):
                counts["searches"] += 1
                super().__init__(*args)

        monkeypatch.setattr(recognition, "iter_topologies", counting_topologies)
        monkeypatch.setattr(recognition, "_TopologySearch", CountingSearch)
        assert recognize_glp(non_glp_family(2), 2) is None
        assert counts == {"topologies": 39208, "searches": 688}
