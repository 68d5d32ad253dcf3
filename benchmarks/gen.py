"""Seeded input generation and independent reference code for the benchmark.

Nothing here imports ``leafpower``.  Inputs are plain Python data (edge
lists of ``Fraction`` weights, vertex lists, triple orders), so the same
seed gives the same inputs whatever the library does, and the reference
helpers (tree distances, the parity edge rule, chordality, induced 3-suns,
the signed extended order) double as oracles that share no code with the
library.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

DENOMS = (1, 1, 1, 2, 3, 4)

# ---------------------------------------------------------------------------
# trees and tree metrics


def random_tree(rng: random.Random, leaves: list, integer: bool = False) -> list:
    """Random series-reduced tree on ``leaves`` as ``[(u, v, weight)]``.

    Grown by leaf insertion: each new leaf hangs off an existing internal
    vertex or off a new vertex that subdivides an edge.  Internal vertices
    are named ``I0, I1, ...``.
    """

    def weight():
        if integer:
            return Fraction(rng.randint(2, 12))
        return Fraction(rng.randint(1, 12), rng.choice(DENOMS))

    edges = {(leaves[0], leaves[1]): weight()}
    internals = []
    for leaf in leaves[2:]:
        if internals and rng.random() < 0.4:
            hub = rng.choice(internals)
        else:
            pair = rng.choice(list(edges))
            w = edges.pop(pair)
            hub = f"I{len(internals)}"
            internals.append(hub)
            if integer:
                w = max(w, Fraction(2))
                cut = Fraction(rng.randint(1, int(w) - 1))
            else:
                cut = w * Fraction(rng.randint(1, 3), 4)
            edges[(pair[0], hub)] = cut
            edges[(hub, pair[1])] = w - cut
        edges[(hub, leaf)] = weight()
    return [(u, v, w) for (u, v), w in edges.items()]


def distances_from(edges, sources) -> dict:
    """``{(s, x): d(s, x)}`` for every source s and every tree vertex x.

    Sums run on integers (weights scaled by their common denominator),
    which keeps the oracle cheap next to the timed work.
    """
    scale = math.lcm(*(Fraction(w).denominator for _, _, w in edges))
    adj: dict = {}
    for u, v, w in edges:
        w = int(w * scale)
        adj.setdefault(u, []).append((v, w))
        adj.setdefault(v, []).append((u, w))
    out = {}
    for s in sources:
        dist = {s: 0}
        stack = [s]
        while stack:
            u = stack.pop()
            for v, w in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + w
                    stack.append(v)
        for x, d in dist.items():
            out[(s, x)] = d if scale == 1 else Fraction(d, scale)
    return out


def parity_edges(dist, leaves, thresholds) -> set:
    """Edges of the graph a tree metric and thresholds induce (parity rule)."""
    edges = set()
    for a, b in itertools.combinations(leaves, 2):
        if sum(1 for t in thresholds if dist[(a, b)] <= t) % 2 == 1:
            edges.add(frozenset((a, b)))
    return edges


def random_thresholds(rng, dists, q, tied) -> tuple:
    """q distinct thresholds; ``tied`` puts the first on a leaf distance and
    mixes the rest half and half, otherwise none equals a distance."""
    values = sorted({Fraction(d) for d in dists})
    lo, hi = values[0], values[-1]
    thetas = set()
    if tied:
        thetas.add(rng.choice(values))
    while len(thetas) < q:
        if tied and rng.random() < 0.5:
            thetas.add(rng.choice(values))
            continue
        t = lo / 2 + (hi - lo + 1) * Fraction(rng.randint(1, 40), 40)
        if t not in values:
            thetas.add(t)
    return tuple(sorted(thetas))


# ---------------------------------------------------------------------------
# small graphs


def is_chordal(vertices, edges) -> bool:
    """Chordality by repeatedly deleting a simplicial vertex."""
    adj = {v: set() for v in vertices}
    for e in edges:
        a, b = tuple(e)
        adj[a].add(b)
        adj[b].add(a)
    while adj:
        for v, nbs in adj.items():
            if all(b in adj[a] for a, b in itertools.combinations(nbs, 2)):
                break
        else:
            return False
        for nb in adj.pop(v):
            adj[nb].discard(v)
    return True


def has_induced_3sun(vertices, edges) -> bool:
    """Does the graph contain an induced 3-sun?

    A 3-sun is a triangle c0 c1 c2 plus an independent set s0 s1 s2 where
    s_i is adjacent to exactly c_i and c_{i+1} among the six vertices.
    """
    adj = {v: set() for v in vertices}
    for e in edges:
        a, b = tuple(e)
        adj[a].add(b)
        adj[b].add(a)
    for six in itertools.combinations(vertices, 6):
        inside = set(six)
        deg = {v: len(adj[v] & inside) for v in six}
        centers = [v for v in six if deg[v] == 4]
        spikes = [v for v in six if deg[v] == 2]
        if len(centers) != 3 or len(spikes) != 3:
            continue
        if any(adj[s] & set(spikes) for s in spikes):
            continue
        if not all(b in adj[a] for a, b in itertools.combinations(centers, 2)):
            continue
        spike_pairs = {frozenset(adj[s] & inside) for s in spikes}
        if len(spike_pairs) == 3 and all(len(p) == 2 and p <= set(centers) for p in spike_pairs):
            return True
    return False


def random_graph(rng, vertices, p) -> set:
    return {
        frozenset(pair)
        for pair in itertools.combinations(vertices, 2)
        if rng.random() < p
    }


# ---------------------------------------------------------------------------
# triangle orders (TOC instances)


def triple_orders(dist, elements) -> dict | None:
    """Pair order of every triple by distance, or None if a triple ties."""
    orders = {}
    for triple in itertools.combinations(elements, 3):
        pairs = [frozenset(p) for p in itertools.combinations(triple, 2)]
        ds = {p: dist[tuple(sorted(p))] for p in pairs}
        if len(set(ds.values())) != 3:
            return None
        orders[frozenset(triple)] = tuple(sorted(pairs, key=ds.__getitem__))
    return orders


def extended_prec(orders, x, y, z) -> bool:
    """Does pair xy strictly precede xz in the order on signed copies?

    Signed copies are ``"<i>+"`` and ``"<i>-"``: degenerate pairs come
    first, then the partner pair, copies of one element put ``+`` nearer,
    and other pairs follow the base triangle order.
    """
    if y == z:
        return False
    if x == y:
        return True
    if x == z:
        return False
    i, j, k = x[:-1], y[:-1], z[:-1]
    if j == i:
        return True
    if k == i:
        return False
    if j == k:
        return y[-1] == "+"
    order = orders[frozenset((i, j, k))]
    return order.index(frozenset((i, j))) < order.index(frozenset((i, k)))


def gadget_audit_queries(elements, orders) -> tuple:
    """Vertex pairs and leaf-label pairs whose leaf-root distances the
    reduction acceptance criterion audits, in that order.

    Vertex names follow the construction: ``p'_i`` hosts element i,
    ``p_x`` a signed copy, ``O_x`` its hub, ``v_x`` and ``u_x,y`` leaves.
    """
    signed = [f"{i}{s}" for i in elements for s in "+-"]
    queries = []
    for i in elements:
        queries += [(f"p'_{i}", f"p_{i}+"), (f"p'_{i}", f"p_{i}-")]
    for i, j in itertools.combinations(elements, 2):
        queries.append((f"p'_{i}", f"p'_{j}"))
    for x in signed:
        queries.append((f"p_{x}", f"O_{x}"))
    for x, y in itertools.product(signed, repeat=2):
        queries.append((f"p_{x}", f"v_{y}"))
    for x, y, z in itertools.product(signed, repeat=3):
        if y != z and extended_prec(orders, x, y, z):
            queries += [(f"p_{x}", f"v_{y}"), (f"p_{x}", f"v_{z}")]
    leaf_queries = []
    for i in elements:
        for z in signed:
            if z[:-1] != i:
                leaf_queries += [(f"v_{i}+", f"v_{z}"), (f"v_{i}-", f"v_{z}")]
    for i in elements:
        u = f"u_{i}-,{i}+"
        for z, z2 in itertools.permutations(signed, 2):
            if f"{i}-" not in (z, z2) and extended_prec(orders, f"{i}-", z, z2):
                queries += [(u, f"v_{z}"), (u, f"v_{z2}")]
    return queries, leaf_queries


# ---------------------------------------------------------------------------
# workload inputs


def integerize_inputs(rng: random.Random, per_cell: int) -> list:
    """Rational certificates, ``per_cell`` for each leaf count 2..8, order
    q = 1..3 and tie flag, so every seed has the same size mix."""
    specs = []
    for n in range(2, 9):
        for q in (1, 2, 3):
            for tied in (False, True):
                for _ in range(per_cell):
                    leaves = [f"L{k}" for k in range(n)]
                    edges = random_tree(rng, leaves)
                    dist = distances_from(edges, leaves)
                    pair_d = [dist[p] for p in itertools.combinations(leaves, 2)]
                    thetas = random_thresholds(rng, pair_d, q, tied)
                    specs.append({
                        "kind": f"n{n}-q{q}-{'tied' if tied else 'generic'}",
                        "edges": edges,
                        "leaves": leaves,
                        "thresholds": thetas,
                        "graph": parity_edges(dist, leaves, thetas),
                    })
    return specs


def reduction_inputs(rng: random.Random, sizes=((3, 13), (4, 3))) -> list:
    """TOC instances read off random integer trees, a fixed count per |S|
    (a tree whose triples tie is redrawn).

    The counts put the median near the middle of the |S| = 3 instances
    (their 62nd percentile) and the 90th percentile near the middle of the
    |S| = 4 ones (their 47th), not on a boundary or in a tail, where the
    figure would move with the seed.
    """
    specs = []
    for n, count in sizes:
        made = 0
        while made < count:
            elements = [str(k + 1) for k in range(n)]
            edges = random_tree(rng, elements, integer=True)
            dist = distances_from(edges, elements)
            orders = triple_orders(dist, elements)
            if orders is None:
                continue
            specs.append({
                "kind": f"S{n}",
                "edges": edges,
                "elements": elements,
                "orders": orders,
                "queries": gadget_audit_queries(elements, orders),
            })
            made += 1
    return specs


RECOGNIZE_MIX = (
    # (kind, instances per block)
    ("nonchordal7x40-q1", 27),
    ("sun7-q1", 4),
    ("chordal7-q1", 2),
    ("any7-q2", 2),
    ("cert6-q3", 2),
    ("leafrank5", 2),
)
# The mix is shaped so that the median and the 90th percentile of a run
# fall inside groups of instances of equal cost, not on a boundary that
# moves with the seed.  Most random 7-vertex graphs are not chordal, and a
# caller screening many of them mostly takes the fast reject at q = 1: 27
# of the 44 instances of a block are such a screen, 40 non-chordal graphs
# in one call each, so the median instance is one of them.  One graph
# alone takes some 30 microseconds, too short to time steadily on a
# shared host.  The
# 90th percentile falls among the four "sun7" instances, which are one
# chordal graph with an induced 3-sun under seeded relabelings: the
# exhaustive "no" search costs the same for every labeling (about 0.7 s).
SUN7 = ("abcdefg", ("ab", "ac", "ad", "ae", "bd", "cd", "ce", "cg", "dg", "fg"))
# Graphs induced by random 8-leaf certificates at q = 1 and q = 2, drawn
# once and kept.  Over 60 random draws at q = 2 the search took 0.06 s to
# 16 s, and at q = 1 one draw in about fifty took 18 s (3,981 topologies,
# 709 LPs), so a few random ones per run would decide the run's figures.
# The q = 2 graph searches 385 topologies with 13 LPs; the q = 1 graph
# succeeds on the first topology.
CERT8 = {
    1: ("abcdefgh", ("ab", "ac", "ae", "af", "ag", "bc", "be", "bg", "cg", "eg")),
    2: ("abcdefgh", ("ae", "ah", "ce", "cg", "df", "eh", "fh")),
}


def _relabeled(rng, graph):
    vertices = list(graph[0])
    perm = dict(zip(vertices, rng.sample(vertices, len(vertices))))
    return vertices, {frozenset(perm[v] for v in e) for e in graph[1]}


NONCHORDAL_BATCH = 40


def _nonchordal7(rng):
    vertices = list("abcdefg")
    while True:
        edges = random_graph(rng, vertices, rng.uniform(0.3, 0.7))
        if not is_chordal(vertices, edges):
            return edges


def _chordal7(rng):
    vertices = list("abcdefg")
    while True:
        edges = random_graph(rng, vertices, rng.uniform(0.3, 0.7))
        if is_chordal(vertices, edges):
            return vertices, edges


def _cert_graph(rng, n, q):
    """The graph a random n-leaf order-q certificate induces, redrawn until
    it is neither edgeless nor complete.

    Those two graphs are fixed 7-vertex cases of every block.  On 8
    vertices either one alone takes 10-17 s (all 8! automorphisms get a
    mask table each), so a one-in-ten draw of it would decide a run's
    figures by itself.
    """
    vertices = [chr(ord("a") + k) for k in range(n)]
    while True:
        tree = random_tree(rng, vertices)
        dist = distances_from(tree, vertices)
        pair_d = [dist[p] for p in itertools.combinations(vertices, 2)]
        thetas = random_thresholds(rng, pair_d, q, tied=rng.random() < 0.5)
        edges = parity_edges(dist, vertices, thetas)
        if 0 < len(edges) < len(pair_d):
            return vertices, edges


def recognize_inputs(rng: random.Random) -> list:
    """One block of the recognition mix: the random kinds in a seeded
    shuffled order, then the fixed cases.

    ``expect`` is the verdict the literature forces: every graph on at most
    7 vertices is a pairwise compatibility graph, a chordal graph on at
    most 7 vertices is a leaf power exactly when it has no induced 3-sun,
    a non-chordal graph is never one, and a graph induced by a certificate
    is in GLP(q).  ``None`` leaves only the certificate check.
    """
    specs = []
    for kind, count in RECOGNIZE_MIX:
        for _ in range(count):
            if kind in ("chordal7-q1", "sun7-q1"):
                vertices, edges = _chordal7(rng) if kind == "chordal7-q1" else _relabeled(rng, SUN7)
                q, expect = 1, not has_induced_3sun(vertices, edges)
            elif kind == "nonchordal7x40-q1":
                vertices = list("abcdefg")
                edges = [_nonchordal7(rng) for _ in range(NONCHORDAL_BATCH)]
                q, expect = 1, False
            elif kind == "any7-q2":
                vertices = list("abcdefg")
                edges = random_graph(rng, vertices, rng.uniform(0.2, 0.8))
                q, expect = 2, True
            elif kind == "leafrank5":
                vertices, edges = _cert_graph(rng, rng.choice((4, 5)), 1)
                q, expect = None, True
            else:
                vertices, edges = _cert_graph(rng, 6, 3)
                q, expect = 3, True
            specs.append({"kind": kind, "vertices": vertices, "edges": edges, "q": q, "expect": expect})
    rng.shuffle(specs)
    seven = list("abcdefg")
    complete = {frozenset(p) for p in itertools.combinations(seven, 2)}
    cert8 = {q: (list(CERT8[q][0]), {frozenset(e) for e in CERT8[q][1]}) for q in (1, 2)}
    for kind, (vertices, edges), q, expect in (
        ("fixed-nonglp2-q2", (None, None), 2, False),
        ("fixed-cert8-q1", cert8[1], 1, True),
        ("fixed-cert8-q2", cert8[2], 2, True),
        ("fixed-edgeless7-q2", (seven, set()), 2, True),
        ("fixed-complete7-q2", (seven, complete), 2, True),
    ):
        specs.append({"kind": kind, "vertices": vertices, "edges": edges, "q": q, "expect": expect})
    return specs


# per workload: the generator of one block of instances, and how many blocks
# a run gets (enough for well over 30 s of instance time on a 2-core host;
# a faster host runs them again from the first)
GENERATORS = {
    "integerize": (lambda rng: integerize_inputs(rng, per_cell=4), 24),
    "reduction": (reduction_inputs, 40),
    "recognize": (recognize_inputs, 6),
}


def generate(workload: str, seed: int) -> list:
    """The workload's inputs as a list of blocks; a pure function of the seed.

    Every block has the same mix of instance kinds, so the mix of a run
    does not depend on where the run ends.
    """
    make, blocks = GENERATORS[workload]
    return [make(random.Random(f"leafpower-bench:{workload}:{seed}:{b}")) for b in range(blocks)]
