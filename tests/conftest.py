import itertools
import random
from fractions import Fraction

import pytest

from leafpower import GlpCertificate, ThresholdSequence, WeightedTree

DENOMS = (1, 1, 1, 2, 3, 4)


def random_weighted_tree(rng: random.Random, n_leaves: int, integer=False) -> WeightedTree:
    """Random series-reduced tree with labeled leaves L0..L{n-1}.

    Grown by random leaf insertion (attach to an internal vertex or
    subdivide an edge), mirroring how the topology space is defined but
    with independent code.
    """
    assert n_leaves >= 2

    def weight():
        if integer:
            return Fraction(rng.randint(2, 12))
        return Fraction(rng.randint(1, 12), rng.choice(DENOMS))

    edges = {("L0", "L1"): weight()}
    internals = []
    counter = [0]
    for k in range(2, n_leaves):
        leaf = f"L{k}"
        if internals and rng.random() < 0.4:
            hub = rng.choice(internals)
        else:
            pair = rng.choice(list(edges))
            w = edges.pop(pair)
            hub = f"I{counter[0]}"
            counter[0] += 1
            internals.append(hub)
            if integer:
                w = max(w, Fraction(2))  # keep both halves integral
                cut = Fraction(rng.randint(1, int(w) - 1))
            else:
                cut = w * Fraction(rng.randint(1, 3), 4)
            edges[(pair[0], hub)] = cut
            edges[(hub, pair[1])] = w - cut
        edges[(hub, leaf)] = weight()
    labels = {f"L{i}": f"L{i}" for i in range(n_leaves)}
    return WeightedTree([(u, v, w) for (u, v), w in edges.items()], labels)


def subdivided(rng: random.Random, tree: WeightedTree) -> WeightedTree:
    """``tree`` with about half its edges split by an unlabeled degree-2
    vertex ``sub{i}``, a third of the weight on the first half."""
    edges = []
    for i, (u, v, w) in enumerate(tree.edges):
        if rng.random() < 0.5:
            edges += [(u, f"sub{i}", w / 3), (f"sub{i}", v, w - w / 3)]
        else:
            edges.append((u, v, w))
    return WeightedTree(edges, tree.leaf_labels)


def restrict_by_pruning(tree: WeightedTree, subset) -> WeightedTree:
    """Reference restriction of ``tree`` to the leaves ``subset``, by two
    fixed-point loops: strip unkept degree-<=1 vertices until none is left,
    then merge away unlabeled degree-2 vertices until none is left."""
    keep = {tree.vertex_of(lbl) for lbl in subset}
    adj = {v: tree.neighbors(v) for v in tree.vertices}
    pruned = True
    while pruned:
        pruned = False
        for v in list(adj):
            if v not in keep and len(adj[v]) <= 1:
                for nb in adj[v]:
                    del adj[nb][v]
                del adj[v]
                pruned = True
    merged = True
    while merged:
        merged = False
        for v in list(adj):
            if v in keep or len(adj[v]) != 2:
                continue
            (a, wa), (b, wb) = adj[v].items()
            del adj[a][v], adj[b][v], adj[v]
            adj[a][b] = adj[b][a] = wa + wb
            merged = True
    edges = [(u, v, w) for u in adj for v, w in adj[u].items() if str(u) < str(v)]
    return WeightedTree(edges, {lbl: tree.vertex_of(lbl) for lbl in subset}, vertices=list(adj))


def random_certificate(rng: random.Random, max_leaves=8, max_q=3) -> GlpCertificate:
    n = rng.randint(2, max_leaves)
    q = rng.randint(1, max_q)
    tree = random_weighted_tree(rng, n)
    dists = sorted(
        {tree.distance(a, b) for a in tree.labels() for b in tree.labels() if str(a) < str(b)}
    )
    lo, hi = dists[0], dists[-1]
    thetas = set()
    while len(thetas) < q:
        # mix of exact distance hits (tie cases) and generic values
        if dists and rng.random() < 0.5:
            thetas.add(rng.choice(dists))
        else:
            num = rng.randint(1, 40)
            thetas.add(lo / 2 + (hi - lo + 1) * Fraction(num, 40))
    return GlpCertificate(tree, ThresholdSequence(tuple(sorted(thetas))))


def is_k_leaf_power_by_literature(g, k) -> bool:
    """Is the networkx graph ``g`` a k-leaf power, for k = 2 or 3, by the
    published characterizations?

    2-leaf powers are exactly the disjoint unions of cliques; 3-leaf powers
    are exactly the chordal graphs with no induced bull, dart or gem (Dom,
    Guo, Hueffner & Niedermeier 2006; Brandstaedt & Le 2006).
    """
    import networkx as nx

    if k == 2:
        return all(
            g.subgraph(c).number_of_edges() == len(c) * (len(c) - 1) // 2
            for c in nx.connected_components(g)
        )
    assert k == 3
    bull = nx.Graph([(0, 1), (1, 2), (2, 0), (0, 3), (1, 4)])  # triangle, two pendants
    dart = nx.Graph([(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (0, 4)])  # diamond, pendant at 0
    gem = nx.Graph([(1, 2), (2, 3), (3, 4), (0, 1), (0, 2), (0, 3), (0, 4)])  # P4 + apex
    induced = nx.algorithms.isomorphism.GraphMatcher
    return nx.is_chordal(g) and not any(
        induced(g, h).subgraph_is_isomorphic() for h in (bull, dart, gem)
    )


def automorphisms_by_scan(graph):
    """All vertex permutations (as index tuples over ``graph.vertices``)
    preserving adjacency, in lexicographic order, by scanning all n!
    permutations."""
    vertices = graph.vertices
    n = len(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    rows = [0] * n
    for u, v in graph.edge_list():
        rows[index[u]] |= 1 << index[v]
        rows[index[v]] |= 1 << index[u]

    def image(perm, row):
        return sum(1 << perm[j] for j in range(n) if row >> j & 1)

    return [
        perm
        for perm in itertools.permutations(range(n))
        if all(image(perm, rows[i]) == rows[perm[i]] for i in range(n))
    ]


def orbit_representatives(graph):
    """The topologies of ``iter_topologies`` on the graph's vertices, in
    order, whose split key is the least over their orbit.

    The key is the sorted leaf masks of the internal splits, each read from
    the side without leaf 0.  Each orbit is built by mapping one member's
    splits through every automorphism of ``automorphisms_by_scan``, leaf by
    leaf.
    """
    from leafpower.recognition import iter_topologies

    n = len(graph)
    full = (1 << n) - 1

    def key(masks):
        return tuple(sorted(m for m in masks[1:] if m & (m - 1)))

    def image(perm, m):
        r = sum(1 << perm[i] for i in range(n) if m >> i & 1)
        return r ^ full if r & 1 else r  # the side without leaf 0

    automorphisms = automorphisms_by_scan(graph)
    topologies = list(iter_topologies(n))
    least = {}
    for masks in topologies:
        k = key(masks)
        if k not in least:
            orbit = {tuple(sorted(image(perm, m) for m in k)) for perm in automorphisms}
            for member in orbit:
                least[member] = min(orbit)
    return [masks for masks in topologies if least[key(masks)] == key(masks)]


def kept_by_orbit_filter(graph):
    """The topologies of ``iter_topologies`` on the graph's vertices, in
    order, that the search's orbit filter keeps."""
    from leafpower.recognition import _SearchPlan, iter_topologies

    orbits = _SearchPlan(graph, 1).orbits
    return [masks for masks in iter_topologies(len(graph)) if orbits is None or orbits.is_representative(masks)]


def plan_without_orbits(graph, q):
    """The graph's search plan at q with its orbit filter off, so that its
    search reaches every topology, not only the orbit representatives."""
    from leafpower.recognition import _SearchPlan

    plan = _SearchPlan(graph, q)
    plan.orbits = None
    return plan


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
