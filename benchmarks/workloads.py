"""The three workloads: library objects from raw inputs, the timed call, and
the oracle that checks each output.

Every workload is a triple of functions over the ``leafpower`` package
object ``lp``:

- ``build(lp, spec)`` turns one raw input from :mod:`gen` into library
  objects (this is the part of set-up that the library pays for);
- ``run(lp, inst, spec)`` is the timed work for one instance;
- ``check(lp, spec, inst, out)`` returns ``None`` when the output is right
  and a one-line reason otherwise.  It runs outside the timed region.

Library functions are always looked up on ``lp`` at call time, so the
tracing wrappers installed on the package are the ones called.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import gen


def _tree(lp, edges, leaves):
    return lp.WeightedTree(edges, {leaf: leaf for leaf in leaves})


def _leaf_distances(tree):
    """Own distances between the labeled leaves of a library tree."""
    labels = tree.leaf_labels
    dist = gen.distances_from(tree.edges, list(labels.values()))
    return {(a, b): dist[(labels[a], labels[b])] for a in labels for b in labels}


def _induced(cert):
    """Edges the certificate induces, computed without the library."""
    dist = _leaf_distances(cert.tree)
    return gen.parity_edges(dist, sorted(cert.tree.leaf_labels, key=str), cert.thresholds.thresholds)


def _graph_edges(graph):
    return {frozenset(e) for e in graph.edges}


# ---------------------------------------------------------------------------
# integerize: one medium exact LP per instance


def integerize_build(lp, spec):
    tree = _tree(lp, spec["edges"], spec["leaves"])
    return lp.GlpCertificate(tree, lp.ThresholdSequence(spec["thresholds"]))


def integerize_run(lp, cert, spec):
    return lp.integerize_certificate_info(cert)


def integerize_check(lp, spec, cert, out):
    new = out.certificate
    weights = [w for _, _, w in new.tree.edges]
    if not all(w.denominator == 1 and w >= 1 for w in weights):
        return "weights are not positive integers"
    if not all(t.denominator == 1 for t in new.thresholds.thresholds):
        return "thresholds are not integers"
    if _induced(new) != spec["graph"]:
        return "integerized certificate induces another graph"
    m = len(weights)
    # basic points obey |E|^(|E|/2); compare squares to stay exact
    if out.basic and any(w * w > Fraction(m) ** m for w in weights):
        return "basic point breaks the |E|^(|E|/2) bound"
    return None


# ---------------------------------------------------------------------------
# reduction: gadget, leaf root, verification, distance audit, extraction


def reduction_build(lp, spec):
    tree = _tree(lp, spec["edges"], spec["elements"])
    toc = lp.TocInstance(tuple(spec["elements"]), dict(spec["orders"]))
    return tree, toc, spec["queries"]


def reduction_run(lp, inst, spec):
    tree, toc, (vertex_queries, leaf_queries) = inst
    gadget = lp.build_gs(toc)
    cert = lp.leaf_root_from_tree(tree, toc)
    verified = lp.verify_certificate(gadget.graph, cert)
    root = cert.tree
    audit = [root.vertex_distance(a, b) for a, b in vertex_queries]
    audit += [root.distance(a, b) for a, b in leaf_queries]
    sub = lp.extract_toc_tree(cert, gadget)
    return verified, cert, tuple(audit), sub


def reduction_check(lp, spec, inst, out):
    verified, cert, audit, sub = out
    if verified is not True:
        return "leaf root does not verify"
    if _induced(cert) != _graph_edges(lp.build_gs(inst[1]).graph):
        return "leaf root induces a graph other than G_S"
    elements = spec["elements"]
    diam = max(gen.distances_from(spec["edges"], elements)[p] for p in itertools.combinations(elements, 2))
    diam = diam if diam >= 6 else 6 * diam
    if cert.thresholds.thresholds != (10 * diam - 1,):
        return "leaf-root threshold is not 10*diam - 1"
    vertex_queries, leaf_queries = spec["queries"]
    labels = cert.tree.leaf_labels
    pairs = vertex_queries + [(labels[a], labels[b]) for a, b in leaf_queries]
    dist = gen.distances_from(cert.tree.edges, {a for a, _ in pairs})
    if list(audit) != [dist[p] for p in pairs]:
        return "audited distances disagree with the tree"
    sub_dist = _leaf_distances(sub)
    for triple, order in spec["orders"].items():
        ds = [sub_dist[tuple(p)] for p in order]
        if not ds[0] < ds[1] < ds[2]:
            return f"extracted tree does not realize triple {sorted(triple)}"
    return None


# ---------------------------------------------------------------------------
# recognize: exhaustive GLP(q) recognition and leaf rank


# A spec whose "edges" is a list of edge sets is a screen: one call that
# recognizes each of those graphs on the spec's vertices in turn.


def recognize_build(lp, spec):
    if spec["vertices"] is None:
        return lp.non_glp_family(2)
    if isinstance(spec["edges"], list):
        return [lp.SimpleGraph(spec["vertices"], [tuple(e) for e in edges]) for edges in spec["edges"]]
    return lp.SimpleGraph(spec["vertices"], [tuple(e) for e in spec["edges"]])


def recognize_run(lp, graph, spec):
    if spec["q"] is None:
        return lp.leaf_rank(graph)
    if isinstance(graph, list):
        return [lp.recognize_glp(g, spec["q"]) for g in graph]
    return lp.recognize_glp(graph, spec["q"])


def recognize_check(lp, spec, graph, out):
    if isinstance(graph, list):
        if not isinstance(out, list) or len(out) != len(graph):
            return "screen returned no verdict per graph"
        for k, (g, o) in enumerate(zip(graph, out)):
            reason = _check_verdict(spec, g, o)
            if reason is not None:
                return f"graph {k} of the screen: {reason}"
        return None
    if spec["q"] is None:
        return _check_leaf_rank(lp, graph, out)
    return _check_verdict(spec, graph, out)


def _check_verdict(spec, graph, out):
    if spec["expect"] is not None and (out is not None) != spec["expect"]:
        return f"verdict {'yes' if out is not None else 'no'} contradicts the oracle"
    if out is None:
        return None
    if out.order != spec["q"]:
        return "certificate has the wrong number of thresholds"
    if _induced(out) != _graph_edges(graph):
        return "certificate induces another graph"
    return None


def _check_leaf_rank(lp, graph, k):
    if not isinstance(k, int) or k < 1:
        return f"leaf rank {k!r} for a leaf power"
    root = lp.is_k_leaf_power(graph, k)
    if root is None:
        return f"no {k}-leaf root exists"
    if any(w.denominator != 1 for _, _, w in root.edges):
        return "k-leaf root has non-integer weights"
    dist = _leaf_distances(root)
    within = {frozenset((a, b)) for a, b in itertools.combinations(root.leaf_labels, 2) if dist[(a, b)] <= k}
    if within != _graph_edges(graph):
        return f"{k}-leaf root induces another graph"
    if k > 1 and lp.is_k_leaf_power(graph, k - 1) is not None:
        return f"a {k - 1}-leaf root exists, so {k} is not the rank"
    return None


WORKLOADS = {
    "integerize": (integerize_build, integerize_run, integerize_check),
    "reduction": (reduction_build, reduction_run, reduction_check),
    "recognize": (recognize_build, recognize_run, recognize_check),
}
