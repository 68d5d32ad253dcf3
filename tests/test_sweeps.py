"""Literature and oracle sweeps over all 1,044 graphs on 7 vertices.

They take minutes, so they are marked ``slow`` and left out of the default
run; ``pytest -m slow`` runs them.
"""

import pytest

from leafpower import SimpleGraph, is_k_leaf_power, recognize_glp, verify_certificate
from conftest import is_k_leaf_power_by_literature, kept_by_orbit_filter, orbit_representatives

nx = pytest.importorskip("networkx")

pytestmark = pytest.mark.slow

# the 3-sun: a triangle 0, 1, 2 and one vertex on each of its sides
SUN3 = nx.Graph([(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (1, 4), (2, 4), (2, 5), (0, 5)])


def atlas7():
    graphs = [g for g in nx.graph_atlas_g() if g.number_of_nodes() == 7]
    assert len(graphs) == 1044
    return graphs


def test_every_7_vertex_graph_is_a_pcg():
    # every graph on <= 7 vertices is a PCG (Calamoneri, Frascaria &
    # Sinaimeri 2013), hence in GLP(2)
    for g in atlas7():
        graph = SimpleGraph(list(g.nodes), list(g.edges))
        cert = recognize_glp(graph, 2)
        assert cert is not None and verify_certificate(graph, cert), list(g.edges)


def test_7_vertex_leaf_powers_are_the_strongly_chordal_graphs():
    # leaf powers are strongly chordal, i.e. chordal and sun-free; on 7
    # vertices the only sun that fits is the 3-sun, and every strongly
    # chordal graph this small is a leaf power
    for g in atlas7():
        graph = SimpleGraph(list(g.nodes), list(g.edges))
        sun_free = not nx.algorithms.isomorphism.GraphMatcher(g, SUN3).subgraph_is_isomorphic()
        cert = recognize_glp(graph, 1)
        assert (cert is not None) == (nx.is_chordal(g) and sun_free), list(g.edges)
        assert cert is None or verify_certificate(graph, cert), list(g.edges)


def test_7_vertex_2_and_3_leaf_powers_match_literature():
    # 2-leaf powers are the disjoint unions of cliques, 3-leaf powers the
    # chordal graphs with no induced bull, dart or gem
    for g in atlas7():
        graph = SimpleGraph(list(g.nodes), list(g.edges))
        for k in (2, 3):
            expected = is_k_leaf_power_by_literature(g, k)
            assert (is_k_leaf_power(graph, k) is not None) == expected, (k, list(g.edges))


def test_7_vertex_orbit_filters_match_their_definition():
    # the orbit filter yields, in order, the topologies whose split key is
    # the least over their orbit under the graph's automorphisms
    for g in atlas7():
        graph = SimpleGraph(list(g.nodes), list(g.edges))
        expected = orbit_representatives(graph)
        assert kept_by_orbit_filter(graph) == expected, list(g.edges)
