import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from leafpower import (
    CapacityError,
    GadgetGraph,
    GlpCertificate,
    SimpleGraph,
    ThresholdSequence,
    TocFormatError,
    RealizationMismatchError,
    InvalidWitnessError,
    WeightedTree,
    build_gs,
    cert_complement,
    cert_lift,
    complement,
    extend_order,
    extract_toc_tree,
    glp_step,
    graph_from_certificate,
    leaf_root_from_tree,
    non_glp_family,
    recognize_glp,
    restrict_to_leaves,
    toc_from_tree,
    toc_realizability_small,
    verify_certificate,
)
from leafpower import exactlp, reductions
from leafpower.recognition import _glp_rows
from leafpower.reductions import GADGET_ELEMENT_CAP, TocInstance, minus, plus
from leafpower.tree_metric import _leaf_masks, _leaf_paths, _lp_weights

from conftest import random_weighted_tree, restrict_by_pruning


def random_toc_tree(rng, n, spread=40):
    """Integer tree whose pair distances are pairwise distinct per triple."""
    while True:
        tree = random_weighted_tree(rng, n, integer=True)
        tree = tree.relabeled({f"L{i}": str(i + 1) for i in range(n)})
        try:
            return tree, toc_from_tree(tree)
        except Exception:
            continue


def star_toc_tree(n):
    """A star with pendant weights 1..n, whose three distances in every
    triple differ, and the order it realizes."""
    tree = WeightedTree([("c", str(k), k) for k in range(1, n + 1)], {str(k): str(k) for k in range(1, n + 1)})
    return tree, toc_from_tree(tree)


def all_triple_orders(triple):
    pairs = [frozenset(p) for p in itertools.combinations(triple, 2)]
    return [tuple(perm) for perm in itertools.permutations(pairs)]


class TestTocInstance:
    def test_text_round_trip(self, rng):
        _, toc = random_toc_tree(rng, 4)
        text = toc.to_text()
        # comments are skipped wherever they stand, indented or not
        for variant in (text, "# head\n" + text.replace("\n", "\n  # note\n", 1)):
            again = TocInstance.from_text(variant)
            assert again.elements == toc.elements
            assert again.triple_orders == toc.triple_orders

    def test_rejects_degenerate_pair(self):
        text = "elements: 1 2 3\n1 2 3 : 1,1 < 1,3 < 2,3\n"
        with pytest.raises(TocFormatError):
            TocInstance.from_text(text)

    def test_rejects_missing_triple(self):
        text = "elements: 1 2 3 4\n1 2 3 : 1,2 < 1,3 < 2,3\n"
        with pytest.raises(TocFormatError):
            TocInstance.from_text(text)

    def test_rejects_duplicate_triple(self):
        text = (
            "elements: 1 2 3\n"
            "1 2 3 : 1,2 < 1,3 < 2,3\n"
            "1 2 3 : 1,3 < 1,2 < 2,3\n"
        )
        with pytest.raises(TocFormatError):
            TocInstance.from_text(text)

    def test_prec_convention(self):
        _, toc = random_toc_tree(random.Random(4), 3)
        i, j, k = toc.elements
        assert toc.prec(i, i, k)  # ii before ik, always
        assert not toc.prec(i, k, i)

    def test_read_off_tree_realizes(self, rng):
        tree, toc = random_toc_tree(rng, 5)
        assert toc.realized_by(tree)


class TestExtendOrder:
    def _toc(self):
        return random_toc_tree(random.Random(7), 3)[1]

    def test_partner_pair_first(self):
        ext = extend_order(self._toc())
        # the {i+, i-} pair precedes any pair leaving it
        assert ext.prec("1+", "1-", "2+")
        assert not ext.prec("1+", "2+", "1-")

    def test_sign_lifted_copies(self):
        toc = self._toc()
        ext = extend_order(toc)
        i, j, k = toc.elements
        expected = toc.prec(i, j, k)
        for si, sj, sk in itertools.product("+-", repeat=3):
            assert ext.prec(f"{i}{si}", f"{j}{sj}", f"{k}{sk}") == expected

    def test_plus_before_minus(self):
        ext = extend_order(self._toc())
        for x in ("2+", "2-", "3+", "3-"):
            assert ext.prec(x, "1+", "1-")
            assert not ext.prec(x, "1-", "1+")

    def test_degenerate_first(self):
        ext = extend_order(self._toc())
        assert ext.prec("1+", "1+", "2-")
        assert ext.prec("1-", "1-", "1+")

    def test_element_count(self):
        toc = self._toc()
        assert len(extend_order(toc).elements) == 2 * len(toc.elements)


class TestGadget:
    def test_size_s1(self):
        toc = TocInstance(("1",), {})
        g = build_gs(toc)
        assert len(g.graph) == 7  # 2 + 4 + 1

    def test_size_formula(self, rng):
        for n in (2, 3):
            _, toc = random_toc_tree(rng, n)
            g = build_gs(toc)
            assert len(g.graph) == 2 * n + 4 * n * n + 1

    def test_origin_neighborhood(self, rng):
        _, toc = random_toc_tree(rng, 3)
        g = build_gs(toc)
        nbrs = g.graph.neighbors(g.origin)
        assert nbrs == {g.v(x) for x in extend_order(toc).elements}

    def test_v_clique_and_u_cliques(self, rng):
        _, toc = random_toc_tree(rng, 3)
        g = build_gs(toc)
        sprime = extend_order(toc).elements
        for x, y in itertools.combinations(sprime, 2):
            assert g.graph.has_edge(g.v(x), g.v(y))
        for x in sprime:
            for y, z in itertools.combinations(sprime, 2):
                assert g.graph.has_edge(g.u(x, y), g.u(x, z))

    def test_u_v_rule(self, rng):
        _, toc = random_toc_tree(rng, 3)
        g = build_gs(toc)
        ext = extend_order(toc)
        for x, z, y in itertools.product(ext.elements, repeat=3):
            assert g.graph.has_edge(g.u(x, z), g.v(y)) == ext.prec(x, y, z)

    def test_u_xx_not_adjacent_v_x(self, rng):
        _, toc = random_toc_tree(rng, 2)
        g = build_gs(toc)
        for x in extend_order(toc).elements:
            assert not g.graph.has_edge(g.u(x, x), g.v(x))

    def test_figure_subgraph(self, rng):
        # the published subgraph around one signed element: with
        # i±x < i±y, u_{i±,y} sees v_x and v_{i∓} but not v_y
        _, toc = random_toc_tree(rng, 3)
        g = build_gs(toc)
        ext = extend_order(toc)
        i = ext.elements[0]
        others = [e for e in ext.elements if e not in (i, ext.partner(i))]
        x, y = others[0], others[1]
        if not ext.prec(i, x, y):
            x, y = y, x
        assert g.graph.has_edge(g.u(i, y), g.v(x))
        assert g.graph.has_edge(g.u(i, y), g.v(ext.partner(i)))
        assert not g.graph.has_edge(g.u(i, y), g.v(y))
        assert g.graph.has_edge(g.u(i, x), g.v(i))
        assert g.graph.has_edge(g.u(i, i), g.v(ext.partner(i))) is False


class TestLeafRoot:
    def _pipeline(self, seed, n):
        rng = random.Random(seed)
        tree, toc = random_toc_tree(rng, n)
        gadget = build_gs(toc)
        cert = leaf_root_from_tree(tree, toc)
        return tree, toc, gadget, cert

    def test_verifies_with_stated_threshold(self):
        tree, toc, gadget, cert = self._pipeline(11, 3)
        assert verify_certificate(gadget.graph, cert)
        scaled = tree if tree.diameter() >= 6 else tree.scaled(6)
        assert cert.thresholds.thresholds == (10 * scaled.diameter() - 1,)

    def test_table_rows(self):
        tree, toc, gadget, cert = self._pipeline(12, 3)
        scaled = tree if tree.diameter() >= 6 else tree.scaled(6)
        diam = scaled.diameter()
        t = cert.tree
        dist = t.vertex_distance
        for i in toc.elements:
            assert dist(f"p'_{i}", f"p_{plus(i)}") == 1
            assert dist(f"p'_{i}", f"p_{minus(i)}") == 2
        for i, j in itertools.combinations(toc.elements, 2):
            assert dist(f"p'_{i}", f"p'_{j}") == 4 * scaled.distance(i, j)
        ext = extend_order(toc)
        for x in ext.elements:
            assert dist(f"p_{x}", f"O_{x}") == 5 * diam
            assert dist(f"p_{x}", f"v_{x}") == 1

    def test_p_dist_exact(self):
        tree, toc, gadget, cert = self._pipeline(13, 3)
        scaled = tree if tree.diameter() >= 6 else tree.scaled(6)
        ext = extend_order(toc)
        t = cert.tree
        for x, y in itertools.product(ext.elements, repeat=2):
            d = t.vertex_distance(f"p_{x}", f"v_{y}")
            if x == y:
                assert d == 1
            elif y == ext.partner(x):
                assert d == 4
            else:
                i, si = x[:-1], x[-1]
                j, sj = y[:-1], y[-1]
                base = 4 * scaled.distance(i, j)
                offset = {("+", "+"): 3, ("+", "-"): 4, ("-", "+"): 4, ("-", "-"): 5}
                assert d == base + offset[(si, sj)]
                assert d > 4

    def test_p_dist_order(self):
        tree, toc, gadget, cert = self._pipeline(14, 3)
        scaled = tree if tree.diameter() >= 6 else tree.scaled(6)
        ext = extend_order(toc)
        t = cert.tree
        bound = 4 * scaled.diameter() + 5
        for x, y, z in itertools.product(ext.elements, repeat=3):
            if y == z:
                continue
            if ext.prec(x, y, z):
                dy = t.vertex_distance(f"p_{x}", f"v_{y}")
                dz = t.vertex_distance(f"p_{x}", f"v_{z}")
                assert dy < dz <= bound

    def test_small_diameter_prescaled(self):
        tree = WeightedTree(
            [("c", "1", 1), ("c", "2", 2), ("c", "3", 3)],
            {x: x for x in "123"},
        )
        toc = toc_from_tree(tree)
        cert = leaf_root_from_tree(tree, toc)
        # diameter 5 < 6, so the construction runs on the x6 copy
        assert cert.thresholds.thresholds == (10 * 30 - 1,)
        assert verify_certificate(build_gs(toc).graph, cert)

    def test_two_element_set(self):
        tree = WeightedTree([("1", "2", 7)], {"1": "1", "2": "2"})
        toc = TocInstance(("1", "2"), {})
        cert = leaf_root_from_tree(tree, toc)
        assert verify_certificate(build_gs(toc).graph, cert)

    def test_mismatched_tree_rejected(self):
        tree = WeightedTree(
            [("c", "1", 1), ("c", "2", 2), ("c", "3", 4)], {x: x for x in "123"}
        )
        toc = toc_from_tree(tree)
        # flip one triple so the tree no longer realizes the order
        (triple, order), = toc.triple_orders.items()
        wrong = TocInstance(toc.elements, {triple: order[::-1]})
        with pytest.raises(RealizationMismatchError):
            leaf_root_from_tree(tree, wrong)

    def test_builds_the_gadget_once(self, monkeypatch):
        # one extended order for the gadget the root must induce
        calls = []
        extend = reductions.extend_order

        def counting(toc):
            calls.append(toc)
            return extend(toc)

        monkeypatch.setattr(reductions, "extend_order", counting)
        tree, toc = star_toc_tree(4)
        leaf_root_from_tree(tree, toc)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "edges, digest",
        [
            # integer weights, |S| = 3
            (
                [("c", "1", 2), ("c", "2", 5), ("c", "3", 9)],
                "91f386bd7c74d0c9dfd4f8d5b2124c6fd6dea832890b1f90e7de012bbe27497e",
            ),
            # rational weights of diameter 5/3: scaled by 3, then pre-scaled by 6
            (
                [("c", "1", Fraction(1, 3)), ("c", "2", Fraction(2, 3)), ("c", "3", Fraction(1))],
                "d1046c1fc7af58b74052bb00d57e700df2ac4fa3fe89e99d8b9ceb588699dafc",
            ),
            # |S| = 2: the one host edge is split at t_mid
            ([("1", "2", 7)], "390d578b97fed4252a2b650e67b050e4ab22350cf1ab85c831498878395cb262"),
        ],
    )
    def test_outputs_are_pinned(self, edges, digest):
        """sha256 of the leaf root's JSON, first computed before the root
        was built on its gadget."""
        labels = {x for e in edges for x in e[:2]} - {"c"}
        tree = WeightedTree(edges, {x: x for x in labels})
        cert = leaf_root_from_tree(tree, toc_from_tree(tree))
        assert hashlib.sha256(cert.to_json().encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "weights",
        [
            (2, 5, 9),  # integer
            (Fraction(1, 2), Fraction(3, 2), Fraction(7, 2)),  # rational, scaled by 2
            (1, 2, 3),  # diameter 5 < 6, scaled by 6
        ],
    )
    def test_scales_without_a_scaled_copy(self, monkeypatch, weights):
        def scaled(self, factor):
            raise AssertionError("leaf_root_from_tree built a scaled copy")

        monkeypatch.setattr(WeightedTree, "scaled", scaled)
        tree = WeightedTree([("c", x, w) for x, w in zip("123", weights)], {x: x for x in "123"})
        toc = toc_from_tree(tree)
        assert verify_certificate(build_gs(toc).graph, leaf_root_from_tree(tree, toc))

    def test_rational_weights_accepted(self):
        tree = WeightedTree(
            [("c", "1", Fraction(1, 2)), ("c", "2", Fraction(3, 2)), ("c", "3", Fraction(7, 2))],
            {x: x for x in "123"},
        )
        toc = toc_from_tree(tree)
        cert = leaf_root_from_tree(tree, toc)
        assert verify_certificate(build_gs(toc).graph, cert)
        assert all(w.denominator == 1 for _, _, w in cert.tree.edges)


class TestExtract:
    def test_round_trip_realization(self, rng):
        for n in (3, 4):
            tree, toc = random_toc_tree(rng, n)
            gadget = build_gs(toc)
            cert = leaf_root_from_tree(tree, toc)
            out = extract_toc_tree(cert, gadget)
            assert set(out.labels()) == set(toc.elements)
            assert toc.realized_by(out)

    def test_claims_on_certificate(self, rng):
        tree, toc = random_toc_tree(rng, 3)
        gadget = build_gs(toc)
        cert = leaf_root_from_tree(tree, toc)
        t = cert.tree
        ext = extend_order(toc)
        for i in toc.elements:
            for z in ext.elements:
                if z in (plus(i), minus(i)):
                    continue
                assert t.distance(f"v_{plus(i)}", f"v_{z}") < t.distance(
                    f"v_{minus(i)}", f"v_{z}"
                )
        for i in toc.elements:
            u = f"u_{minus(i)},{plus(i)}"
            for z, z2 in itertools.permutations(ext.elements, 2):
                if minus(i) in (z, z2) or not ext.prec(minus(i), z, z2):
                    continue
                assert t.vertex_distance(u, f"v_{z}") < t.vertex_distance(u, f"v_{z2}")

    def test_restriction_matches_pruning(self, rng):
        # the restriction extract_toc_tree takes: the leaf root to its minus copies
        for n in (3, 4):
            for _ in range(3):
                tree, toc = random_toc_tree(rng, n)
                cert, gadget = leaf_root_from_tree(tree, toc), build_gs(toc)
                keep = [gadget.v(minus(i)) for i in gadget.elements]
                r, ref = restrict_to_leaves(cert.tree, keep), restrict_by_pruning(cert.tree, keep)
                assert r == ref and r.vertices == ref.vertices

    def test_fixed_topology_lp_root_extracts(self):
        """Another leaf root of G_S than the one the construction builds: the
        q = 1 exact LP on the constructed root's topology (one margin-1 row
        per leaf pair, ``_glp_rows``) finds its own weights and threshold,
        and that root too restricts to a realization."""
        tree = WeightedTree([("c", "1", 2), ("c", "2", 5), ("c", "3", 9)], {x: x for x in "123"})
        toc = toc_from_tree(tree)
        gadget, topology = build_gs(toc), leaf_root_from_tree(tree, toc).tree
        edges = topology.edges
        m = len(edges)
        leaves = sorted(topology.leaf_labels)
        masks = _leaf_masks([(u, v) for u, v, _ in edges], [topology.vertex_of(a) for a in leaves])
        paths = _leaf_paths(masks, len(leaves))
        regions = {(i, j): 0 if gadget.graph.has_edge(leaves[i], leaves[j]) else 1 for i, j in paths}
        rows = _glp_rows(paths, m, 1, regions)
        assert (len(leaves), m, len(rows)) == (43, 58, 903)
        solution = exactlp.find_feasible_point(m + 1, rows)
        assert solution is not None
        *weights, theta = _lp_weights(solution, m + 1)
        weighted = WeightedTree([(u, v, w) for (u, v, _), w in zip(edges, weights)], topology.leaf_labels)
        cert = GlpCertificate(weighted, ThresholdSequence((theta,)))
        # the construction's root has theta = 10 * 14 - 1 = 139
        assert cert.thresholds.thresholds == (23,)
        assert verify_certificate(gadget.graph, cert)
        assert toc.realized_by(extract_toc_tree(cert, gadget))

    def test_bad_witness_rejected(self, rng):
        tree, toc = random_toc_tree(rng, 3)
        gadget = build_gs(toc)
        cert = leaf_root_from_tree(tree, toc)
        # tamper: double one threshold so the certificate no longer verifies
        from leafpower import GlpCertificate, ThresholdSequence

        broken = GlpCertificate(
            cert.tree, ThresholdSequence((cert.thresholds.thresholds[0] * 100,))
        )
        with pytest.raises(InvalidWitnessError):
            extract_toc_tree(broken, gadget)

    def test_over_the_gadget_cap_fails_before_any_work(self, monkeypatch):
        # one element over the cap: no extended order is built and no
        # certificate is verified
        def no_work(*args):
            raise AssertionError("worked on an over-cap instance")

        tree, toc = star_toc_tree(GADGET_ELEMENT_CAP + 1)
        monkeypatch.setattr(reductions, "extend_order", no_work)
        monkeypatch.setattr(reductions, "verify_certificate", no_work)
        with pytest.raises(CapacityError, match="gadget cap"):
            build_gs(toc)
        with pytest.raises(CapacityError, match="gadget cap"):
            leaf_root_from_tree(tree, toc)
        gadget = GadgetGraph(SimpleGraph(["O"]), {}, toc.elements)
        with pytest.raises(CapacityError, match="gadget cap"):
            extract_toc_tree(GlpCertificate(tree, ThresholdSequence((1,))), gadget)


class TestHierarchy:
    def test_lift_and_complement(self, rng):
        from conftest import random_certificate

        for _ in range(60):
            cert = random_certificate(rng, max_leaves=6)
            g = graph_from_certificate(cert)
            lifted = cert_lift(cert)
            assert lifted.order == cert.order + 1
            assert graph_from_certificate(lifted) == g
            comp = cert_complement(cert)
            assert comp.order == cert.order + 1
            assert graph_from_certificate(comp) == complement(g)
            double = cert_complement(comp)
            assert graph_from_certificate(double) == g

    def test_repeated_lift(self, rng):
        from conftest import random_certificate

        cert = random_certificate(rng, max_leaves=5, max_q=1)
        g = graph_from_certificate(cert)
        for _ in range(4):
            cert = cert_lift(cert)
            assert verify_certificate(g, cert)

    def test_glp_step_k1(self):
        k1 = SimpleGraph(["a"])
        out = glp_step(k1)
        assert len(out) == 2
        assert out.has_edge("a#1", "a#2")

    def test_non_glp_counts(self):
        for q in range(1, 6):
            assert len(non_glp_family(q)) == 2 ** (q + 1)

    def test_non_glp_q1_is_c4(self):
        g = non_glp_family(1)
        assert len(g) == 4
        assert sorted(len(g.neighbors(v)) for v in g.vertices) == [2, 2, 2, 2]
        assert recognize_glp(g, 1) is None


class TestRealizabilityOracle:
    def test_all_orders_s3_realizable(self):
        triple = ("1", "2", "3")
        for order in all_triple_orders(triple):
            toc = TocInstance(triple, {frozenset(triple): order})
            tree = toc_realizability_small(toc)
            assert tree is not None
            assert toc.realized_by(tree)

    def test_round_trip(self, rng):
        for n in (4, 5):
            _, toc = random_toc_tree(rng, n)
            tree = toc_realizability_small(toc)
            assert tree is not None
            assert toc.realized_by(tree)

    def test_unrealizable_s4_exists(self):
        found = find_unrealizable_s4()
        assert found is not None
        assert toc_realizability_small(found) is None


def find_unrealizable_s4():
    elements = ("1", "2", "3", "4")
    triples = list(itertools.combinations(elements, 3))
    orders = {t: all_triple_orders(t) for t in triples}
    rng = random.Random(5)
    for _ in range(400):
        chosen = {
            frozenset(t): rng.choice(orders[t]) for t in triples
        }
        toc = TocInstance(elements, chosen)
        if toc_realizability_small(toc) is None:
            return toc
    return None
