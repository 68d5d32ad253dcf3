"""Constructions connecting triangle orders, leaf powers, and the GLP hierarchy.

Covers: the triangle ordinal clustering (TOC) instance type with its text
format, the order extension to signed copies, the gadget graph G_S, the
explicit leaf-root construction for realizable orders, extraction of a
realizing tree back out of a leaf root, certificate lifting/complementation
along the GLP hierarchy, and the doubling family of non-members.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm

from . import exactlp
from .errors import (
    CapacityError,
    DegenerateTreeError,
    InternalError,
    InvalidWitnessError,
    RealizationMismatchError,
    TocFormatError,
)
from .glp_core import (
    GlpCertificate,
    SimpleGraph,
    ThresholdSequence,
    complement,
    disjoint_union,
    graph_from_certificate,
    verify_certificate,
)
from .rational import format_rational, parse_rational
from .recognition import iter_topologies
from .tree_metric import WeightedTree, _distance_row, _leaf_paths, _lp_weights, _tree_from, restrict_to_leaves

TOC_REALIZABILITY_CAP = 7
# q = 8 builds 512 vertices and 87,296 edges in about 1 s and 100 MB (2-core
# x86_64 VM); each step more takes about 8x the time and 4x the edges
NON_GLP_Q_CAP = 8
# the gadget of |S| elements has 4|S|^2 + 2|S| + 1 vertices, and the leaf
# root checks a distance matrix over as many leaves: leaf_root_from_tree at
# |S| = 12, 14, 16 took 1.5, 2.7, 4.8 s and 102, 155, 248 MB peak (2-core
# x86_64 VM), growing with that matrix, so |S| = 30 would need gigabytes
GADGET_ELEMENT_CAP = 16


def _check_gadget_size(elements) -> None:
    if len(elements) > GADGET_ELEMENT_CAP:
        raise CapacityError(f"|S| = {len(elements)} exceeds the gadget cap of {GADGET_ELEMENT_CAP}")


def _pair(a, b) -> frozenset:
    return frozenset((a, b))


@dataclass(frozen=True)
class TocInstance:
    """A triangle order: a strict total order on the pairs of every triple.

    triple_orders maps each frozenset of three distinct elements to its
    three pairs listed from smallest to largest.  The degenerate pairs
    ``ii`` are not stored; by convention ii always precedes ik.
    """

    elements: tuple
    triple_orders: dict

    def __post_init__(self):
        elems = set(self.elements)
        if len(elems) != len(self.elements):
            raise TocFormatError("duplicate elements")
        expected = {frozenset(t) for t in itertools.combinations(self.elements, 3)}
        got = set(self.triple_orders)
        if got != expected:
            missing = expected - got
            extra = got - expected
            raise TocFormatError(
                f"triple set mismatch (missing {len(missing)}, extra {len(extra)})"
            )
        for triple, order in self.triple_orders.items():
            pairs = {_pair(a, b) for a, b in itertools.combinations(sorted(triple, key=str), 2)}
            if len(order) != 3 or set(order) != pairs:
                raise TocFormatError(f"bad pair order for triple {sorted(triple, key=str)}")

    def prec(self, i, j, k) -> bool:
        """Does pair ij strictly precede pair ik?  Handles the ii convention."""
        if j == k:
            return False
        if i == j:
            return True  # ii precedes ik
        if i == k:
            return False
        order = self.triple_orders[frozenset((i, j, k))]
        return order.index(_pair(i, j)) < order.index(_pair(i, k))

    def violations(self, tree: WeightedTree) -> list:
        """Triples whose recorded pair order is not strictly realized."""
        bad = []
        for triple, order in sorted(self.triple_orders.items(), key=lambda t: sorted(t[0], key=str)):
            dists = [tree.distance(*sorted(p, key=str)) for p in order]
            if not (dists[0] < dists[1] < dists[2]):
                bad.append(tuple(sorted(triple, key=str)))
        return bad

    def realized_by(self, tree: WeightedTree) -> bool:
        return not self.violations(tree)

    # -- text format: header line, then one line per triple -----------------
    #    elements: 1 2 3
    #    1 2 3 : 1,2 < 1,3 < 2,3

    @classmethod
    def from_text(cls, text: str) -> "TocInstance":
        lines = [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]
        if not lines or not lines[0].startswith("elements:"):
            raise TocFormatError("missing 'elements:' header line")
        elements = tuple(lines[0][len("elements:"):].split())
        if not elements:
            raise TocFormatError("empty element set")
        elems = set(elements)
        triple_orders = {}
        for ln in lines[1:]:
            if ":" not in ln:
                raise TocFormatError(f"malformed line: {ln!r}")
            head, _, tail = ln.partition(":")
            triple = tuple(head.split())
            if len(triple) != 3 or len(set(triple)) != 3 or not set(triple) <= elems:
                raise TocFormatError(f"bad triple in line: {ln!r}")
            chunks = [c.strip() for c in tail.split("<")]
            if len(chunks) != 3:
                raise TocFormatError(f"expected three pairs in line: {ln!r}")
            order = []
            for chunk in chunks:
                parts = chunk.split(",")
                if len(parts) != 2:
                    raise TocFormatError(f"pair must be 'a,b' in line: {ln!r}")
                a, b = (p.strip() for p in parts)
                if a == b:
                    # a degenerate pair may never be written: ii precedes
                    # everything by convention, so listing it is a rejection
                    raise TocFormatError(f"degenerate pair {chunk!r} not allowed")
                if not {a, b} <= set(triple):
                    raise TocFormatError(f"pair {chunk!r} outside triple in line: {ln!r}")
                order.append(_pair(a, b))
            key = frozenset(triple)
            if key in triple_orders:
                raise TocFormatError(f"triple {triple} listed twice")
            triple_orders[key] = tuple(order)
        return cls(elements, triple_orders)

    def to_text(self) -> str:
        out = ["elements: " + " ".join(str(e) for e in self.elements)]
        for triple in itertools.combinations(self.elements, 3):
            order = self.triple_orders[frozenset(triple)]
            pairs = ["%s,%s" % tuple(sorted(p, key=str)) for p in order]
            out.append("%s %s %s : %s" % (*triple, " < ".join(pairs)))
        return "\n".join(out) + "\n"


def toc_from_tree(tree: WeightedTree) -> TocInstance:
    """Read the triangle order off a weighted tree.

    Requires the three pair distances within every triple to be pairwise
    distinct, otherwise no strict total order exists.
    """
    leaves = tree.labels()
    triple_orders = {}
    for triple in itertools.combinations(leaves, 3):
        pairs = list(itertools.combinations(triple, 2))
        dists = {_pair(*p): tree.distance(*p) for p in pairs}
        if len(set(dists.values())) != 3:
            raise DegenerateTreeError(
                f"tied pair distances within triple {triple}; no strict order"
            )
        triple_orders[frozenset(triple)] = tuple(sorted(dists, key=dists.__getitem__))
    return TocInstance(leaves, triple_orders)


# ---------------------------------------------------------------------------
# signed extension and gadget


def plus(i) -> str:
    return f"{i}+"


def minus(i) -> str:
    return f"{i}-"


@dataclass(frozen=True)
class ExtendedOrder:
    """The triangle order on signed copies S' = {i+, i-}.

    Generated by three rule families: degenerate pairs first (xx precedes
    xy), the partner pair {i+, i-} precedes any pair leaving it, signed
    copies of the base order, and x i+ precedes x i- for outside x.
    """

    base: TocInstance
    elements: tuple  # S'

    def _split(self, x):
        return x[:-1], x[-1]

    def partner(self, x) -> str:
        i, s = self._split(x)
        return i + ("-" if s == "+" else "+")

    def prec(self, x, y, z) -> bool:
        """Does pair xy strictly precede pair xz in the extended order?

        Defined for all x, y, z in S' with y != z, including degenerate
        pairs (y = x or z = x).
        """
        if y == z:
            return False
        if x == y:
            return True
        if x == z:
            return False
        if y == self.partner(x):
            return True
        if z == self.partner(x):
            return False
        i, _ = self._split(x)
        j, sj = self._split(y)
        k, _ = self._split(z)
        if j == k:  # copies of the same element: the + copy is closer
            return sj == "+"
        return self.base.prec(i, j, k)


def extend_order(toc: TocInstance) -> ExtendedOrder:
    elements = tuple(
        s for i in toc.elements for s in (plus(i), minus(i))
    )
    ext = ExtendedOrder(toc, elements)
    # the rules must induce a strict total order within every triple
    for x, y, z in itertools.combinations(elements, 3):
        xy_xz = ext.prec(x, y, z)  # xy < xz ?
        xy_yz = ext.prec(y, x, z)  # xy < yz ?
        xz_yz = ext.prec(z, x, y)  # xz < yz ?
        if (
            xy_xz == ext.prec(x, z, y)
            or (xy_xz and xz_yz and not xy_yz)
            or (xy_yz and not xz_yz and not xy_xz)
        ):
            raise InternalError(f"extend_order: no strict total order on {(x, y, z)}")
    return ext


@dataclass(frozen=True)
class GadgetGraph:
    """The reduction graph for a triangle order, with vertex roles."""

    graph: SimpleGraph
    roles: dict
    elements: tuple  # the base set S

    def v(self, x) -> str:
        return self.roles["v"][x]

    def u(self, x, y) -> str:
        return self.roles["u"][f"{x},{y}"]

    @property
    def origin(self) -> str:
        return self.roles["O"]

    def to_json_dict(self) -> dict:
        return {"graph": self.graph.to_json_dict(), "roles": self.roles, "elements": list(self.elements)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "GadgetGraph":
        return cls(SimpleGraph.from_json_dict(data["graph"]), data["roles"], tuple(data["elements"]))


def build_gs(toc: TocInstance) -> GadgetGraph:
    """Gadget with 2|S| + 4|S|^2 + 1 vertices.

    v-vertices plus O form a clique; each U_x = {u_{x,y}} is a clique;
    u_{x,z} is adjacent to v_y exactly when xy precedes xz in the extended
    order.  No other edges; in particular u_{x,x} never touches v_x (no
    rule ever compares a pair against itself).
    """
    _check_gadget_size(toc.elements)
    ext = extend_order(toc)
    sprime = ext.elements
    v_name = {x: f"v_{x}" for x in sprime}
    u_name = {(x, y): f"u_{x},{y}" for x in sprime for y in sprime}
    origin = "O"
    vertices = [origin, *v_name.values(), *u_name.values()]
    edges = []
    for x in sprime:
        edges.append((origin, v_name[x]))
    for x, y in itertools.combinations(sprime, 2):
        edges.append((v_name[x], v_name[y]))
    for x in sprime:
        clique = [u_name[(x, y)] for y in sprime]
        edges.extend(itertools.combinations(clique, 2))
    for x in sprime:
        for z in sprime:
            for y in sprime:
                if ext.prec(x, y, z):
                    edges.append((u_name[(x, z)], v_name[y]))
    graph = SimpleGraph(vertices, edges)
    n = len(toc.elements)
    if len(graph) != 2 * n + 4 * n * n + 1:
        raise InternalError(f"build_gs: {len(graph)} vertices for |S| = {n}")
    roles = {
        "v": dict(v_name),
        "u": {f"{x},{y}": name for (x, y), name in u_name.items()},
        "O": origin,
    }
    return GadgetGraph(graph, roles, tuple(toc.elements))


# ---------------------------------------------------------------------------
# leaf-root construction


def leaf_root_from_tree(tree: WeightedTree, toc: TocInstance) -> GlpCertificate:
    """Turn a tree realizing the order into a leaf root of the gadget.

    The strict-gap arithmetic needs integer weights, so the construction
    reads the input tree scaled by s, the lcm of its weight denominators,
    times 6 when that scaled diameter is below 6 (scaling preserves the
    order).  No scaled copy is built: each host edge weighs 4*s*w, and
    the output threshold is exactly 10*diam - 1 for diam = s times the
    input diameter.
    """
    _check_gadget_size(toc.elements)
    if set(tree.labels()) != set(toc.elements):
        raise RealizationMismatchError("tree leaves differ from the element set")
    if len(toc.elements) < 2:
        raise DegenerateTreeError("need at least 2 elements for the construction")
    bad = toc.violations(tree)
    if bad:
        raise RealizationMismatchError(f"order not realized on triples {bad[:3]}")
    s = lcm(*(w.denominator for _, _, w in tree.edges))
    if s * tree.diameter() < 6:
        s *= 6
    diam = s * tree.diameter()

    gadget = build_gs(toc)

    # step 1: scale by 4s, relabel leaves i -> p'_i (internals get a prefix)
    label_of = {v: lbl for lbl, v in tree.leaf_labels.items()}

    def host_name(v):
        lbl = label_of.get(v)
        return f"p'_{lbl}" if lbl is not None else f"t_{v}"

    edges = [(host_name(u), host_name(v), 4 * s * w) for u, v, w in tree.edges]

    # step 2: attach O at 5*diam to a canonical non-leaf vertex
    internal = sorted(
        (host_name(v) for v in tree.vertices if v not in label_of),
        key=str,
    )
    if internal:
        anchor = internal[0]
    else:
        # two leaves joined by one edge: split it in half to make an anchor
        (a, b, w), = edges
        anchor = "t_mid"
        edges = [(a, anchor, w / 2), (anchor, b, w / 2)]
    edges.append((anchor, gadget.origin, 5 * diam))

    # step 3: signed copies p_{i+} at 1 and p_{i-} at 2 off each p'_i
    # step 4: leaves v_x at 1 and hubs O_x at 5*diam off each p_x
    copies = [(x, i, off) for i in toc.elements for x, off in ((plus(i), 1), (minus(i), 2))]
    for x, i, off in copies:
        edges.append((f"p'_{i}", f"p_{x}", off))
        edges.append((f"p_{x}", gadget.v(x), 1))
        edges.append((f"p_{x}", f"O_{x}", 5 * diam))

    # step 5: u_{x,y} at 5*diam - d(p_x, v_y) off O_x, where v_y hangs at 1
    # off p_y.  p_x hangs at off(x) off p'_i and the p'_i lie 4*s*d_T(i, j)
    # apart, so d(p_x, p_y) = off(x) + 4*s*d_T(i, j) + off(y) for x != y
    # (partners get 1 + 2, as d_T(i, i) = 0): the input tree's cached
    # matrix gives every one of them without a walk of the root
    d_T = tree.distance_matrix()
    for x, i, off_x in copies:
        for y, j, off_y in copies:
            w = 5 * diam - 1 - (off_x + 4 * s * d_T[i, j] + off_y if x != y else 0)
            if w <= 0:
                raise InternalError(f"leaf_root_from_tree: weight {w} for u_{x},{y}")
            edges.append((f"O_{x}", gadget.u(x, y), w))

    root = WeightedTree(edges, {v: v for v in gadget.graph.vertices})
    cert = GlpCertificate(root, ThresholdSequence((10 * diam - 1,)))
    if graph_from_certificate(cert) != gadget.graph:
        raise InternalError("leaf_root_from_tree: the leaf root does not induce G_S")
    return cert


def extract_toc_tree(cert: GlpCertificate, gadget: GadgetGraph) -> WeightedTree:
    """Pull a tree realizing the base order back out of a verifying leaf root.

    The restriction of the certificate tree to the minus-copy leaves
    realizes the original order; that is a theorem about any verifying
    certificate, so it is only checked, not re-derived.
    """
    _check_gadget_size(gadget.elements)
    if not verify_certificate(gadget.graph, cert):
        raise InvalidWitnessError("certificate does not verify against the gadget")
    keep = {gadget.v(minus(i)) for i in gadget.elements}
    sub = restrict_to_leaves(cert.tree, keep)
    sub = sub.relabeled({gadget.v(minus(i)): i for i in gadget.elements})
    # the order encoded in the gadget: ij < ik  <=>  edge (u_{i-,k-}, v_{j-})
    for i, j, k in itertools.permutations(gadget.elements, 3):
        if gadget.graph.has_edge(gadget.u(minus(i), minus(k)), gadget.v(minus(j))):
            if not sub.distance(i, j) < sub.distance(i, k):
                raise InternalError(f"extract_toc_tree: order of {(i, j, k)} not realized")
    return sub


# ---------------------------------------------------------------------------
# GLP hierarchy


def cert_lift(cert: GlpCertificate) -> GlpCertificate:
    """A (q+1)-certificate of the same graph.

    Prepends a threshold strictly below every leaf-pair distance (and below
    the old first threshold), which leaves every pair's parity unchanged.
    The construction's nominal choice of 0 is nudged up to stay strictly
    positive.
    """
    old = cert.thresholds.thresholds
    matrix = cert.tree.distance_matrix()
    bound = min((d for (a, b), d in matrix.items() if a != b), default=old[0])
    theta1 = min(bound, old[0]) / 2
    return GlpCertificate(cert.tree, ThresholdSequence((theta1, *old)))


def cert_complement(cert: GlpCertificate) -> GlpCertificate:
    """A (q+1)-certificate of the complement graph.

    Appending a threshold above every distance flips every pair's parity.
    """
    old = cert.thresholds.thresholds
    top = 1 + max([old[-1], *cert.tree.distance_matrix().values()])
    return GlpCertificate(cert.tree, ThresholdSequence((*old, top)))


def glp_step(graph: SimpleGraph) -> SimpleGraph:
    """Complement of two disjoint tagged copies; doubles the vertex count."""
    return complement(disjoint_union(graph, graph))


def non_glp_family(q: int) -> SimpleGraph:
    """A graph on 2^(q+1) vertices outside GLP(q): iterate the step from C4."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if q > NON_GLP_Q_CAP:
        raise CapacityError(f"q = {q} exceeds the cap of {NON_GLP_Q_CAP}: 2^(q+1) vertices")
    graph = SimpleGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    for _ in range(q - 1):
        graph = glp_step(graph)
    return graph


# ---------------------------------------------------------------------------
# independent realizability oracle


def toc_realizability_small(toc: TocInstance) -> WeightedTree | None:
    """Decide realizability by exhausting topologies with exact LP.

    Every recorded strict inequality becomes a margin-1 constraint; scale
    invariance makes that lossless.  Independent of the gadget machinery.
    """
    n = len(toc.elements)
    if n > TOC_REALIZABILITY_CAP:
        raise CapacityError(f"|S| = {n} exceeds the cap of {TOC_REALIZABILITY_CAP}")
    labels = list(toc.elements)
    index = {e: i for i, e in enumerate(labels)}
    relations = []  # (smaller pair, larger pair) as index pairs
    for triple, order in toc.triple_orders.items():
        for small, large in zip(order, order[1:]):
            relations.append(
                (
                    tuple(sorted(index[e] for e in small)),
                    tuple(sorted(index[e] for e in large)),
                )
            )
    for masks in iter_topologies(n):
        m = len(masks)
        paths = _leaf_paths(masks, n)
        constraints = [_distance_row(paths[large], paths[small], exactlp.GE, 1) for small, large in relations]
        solution = exactlp.find_feasible_point(m, constraints)
        if solution is None:
            continue
        tree = _tree_from(masks, labels, _lp_weights(solution, m))
        if not toc.realized_by(tree):
            raise InternalError("toc_realizability_small: the tree does not realize the order")
        return tree
    return None
