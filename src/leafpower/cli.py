"""Batch command-line front end.

Machine-readable JSON goes to stdout, diagnostics to stderr.  Exit codes:
0 success/PASS, 1 valid negative answer (NONE/FAIL), 2 usage or format
error, 3 capacity or k ceiling exceeded, 4 internal error (a failed
self-check or any other unexpected exception: a bug, never an answer).
Rationals are read as "p/q" or decimal strings, with no exponent, and
serialized as "p/q" strings.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from fractions import Fraction

from .errors import (
    CapacityError,
    CeilingExceededError,
    CertificateLabelMismatch,
    InternalError,
    InvalidWitnessError,
    LeafPowerError,
    MalformedMetricError,
)
from .glp_core import (
    GlpCertificate,
    SimpleGraph,
    graph_from_certificate,
    verify_certificate,
)
from .rational import format_rational, parse_rational
from .recognition import DEFAULT_LIMITS, RecognitionLimits, is_k_leaf_power, leaf_rank, recognize_glp
from .reductions import (
    GadgetGraph,
    TocInstance,
    build_gs,
    cert_complement,
    cert_lift,
    extract_toc_tree,
    glp_step,
    leaf_root_from_tree,
    non_glp_family,
    toc_realizability_small,
)
from .tree_metric import (
    VIOLATION,
    WeightedTree,
    check_split_lemma,
    check_twins_lemma,
    classify_leaf_quartet,
    four_point_classify,
)

EXIT_PASS = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4

# fuzz classifies all C(n, 4) leaf quartets of every tree, at 8-13 us each
# (x86_64, Python 3.11): a 24-leaf tree has 10,626 quartets and takes
# 0.08-0.14 s, a 32-leaf tree 36k and 0.3 s, a 200-leaf tree 65M and about
# 10 minutes
FUZZ_LEAF_CAP = 24


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _emit(data) -> None:
    json.dump(data, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _load_graph(path) -> SimpleGraph:
    return SimpleGraph.from_json(_read(path))


def _load_tree(path) -> WeightedTree:
    return WeightedTree.from_json(_read(path))


def _load_cert(path) -> GlpCertificate:
    return GlpCertificate.from_json(_read(path))


def _load_toc(path) -> TocInstance:
    return TocInstance.from_text(_read(path))


def _gadget_to_json(gadget: GadgetGraph) -> dict:
    return {
        "graph": gadget.graph.to_json_dict(),
        "roles": gadget.roles,
        "elements": list(gadget.elements),
    }


def _gadget_from_json(data: dict) -> GadgetGraph:
    return GadgetGraph(
        SimpleGraph.from_json_dict(data["graph"]),
        data["roles"],
        tuple(data["elements"]),
    )


def _graph_dot(graph: SimpleGraph) -> str:
    lines = ["graph {"]
    for v in graph.vertices:
        lines.append(f'  "{v}";')
    for u, v in graph.edge_list():
        lines.append(f'  "{u}" -- "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _tree_dot(tree: WeightedTree) -> str:
    lines = ["graph {"]
    labeled = set(tree.leaf_labels.values())
    for v in tree.vertices:
        shape = "circle" if v in labeled else "point"
        lines.append(f'  "{v}" [shape={shape}];')
    for u, v, w in tree.edges:
        lines.append(f'  "{u}" -- "{v}" [label="{format_rational(w)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# the subcommands that render their output as DOT under --emit-dot; the
# others have no graph or tree to render and do not take the flag
_DOT_COMMANDS = (
    "recognize", "k-leaf-power", "gen-gs", "make-leafroot", "extract-toc", "glp-step", "non-glp", "toc-realize"
)


def _maybe_dot(args, obj) -> None:
    if args.emit_dot:
        text = _tree_dot(obj) if isinstance(obj, WeightedTree) else _graph_dot(obj)
        with open(args.emit_dot, "w") as fh:
            fh.write(text)


# --- subcommand bodies -----------------------------------------------------


def _cmd_verify(args) -> int:
    graph = _load_graph(args.graph)
    cert = _load_cert(args.cert)
    try:
        if verify_certificate(graph, cert):
            _emit({"status": "PASS"})
            return EXIT_PASS
    except CertificateLabelMismatch as exc:
        _emit({"status": "FAIL", "discrepancy": str(exc)})
        return EXIT_NEGATIVE
    want = set(map(tuple, graph.edge_list()))
    got = set(map(tuple, graph_from_certificate(cert).edge_list()))
    diff = sorted(want ^ got)[0]
    kind = "missing edge" if diff in want else "extra edge"
    _emit({"status": "FAIL", "discrepancy": f"{kind} {diff[0]}--{diff[1]}"})
    return EXIT_NEGATIVE


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


_positive_int = _int_at_least(1)


def _limits(args) -> RecognitionLimits:
    return RecognitionLimits(args.max_leaves, getattr(args, "ceiling", None) or DEFAULT_LIMITS.k_ceiling)


def _cmd_recognize(args) -> int:
    graph = _load_graph(args.graph)
    cert = recognize_glp(graph, args.q, _limits(args))
    if cert is None:
        _emit({"result": "NONE"})
        return EXIT_NEGATIVE
    _emit(cert.to_json_dict())
    _maybe_dot(args, cert.tree)
    return EXIT_PASS


def _cmd_leaf_rank(args) -> int:
    graph = _load_graph(args.graph)
    rank = leaf_rank(graph, _limits(args))
    if rank is None:
        _emit({"result": "NONE"})
        return EXIT_NEGATIVE
    _emit({"leaf_rank": rank})
    return EXIT_PASS


def _cmd_k_leaf_power(args) -> int:
    graph = _load_graph(args.graph)
    tree = is_k_leaf_power(graph, args.k, _limits(args))
    if tree is None:
        _emit({"result": "NONE"})
        return EXIT_NEGATIVE
    _emit(tree.to_json_dict())
    _maybe_dot(args, tree)
    return EXIT_PASS


def _cmd_gen_gs(args) -> int:
    gadget = build_gs(_load_toc(args.toc))
    _emit(_gadget_to_json(gadget))
    _maybe_dot(args, gadget.graph)
    return EXIT_PASS


def _cmd_make_leafroot(args) -> int:
    toc = _load_toc(args.toc)
    tree = _load_tree(args.tree)
    cert = leaf_root_from_tree(tree, toc)
    _emit(cert.to_json_dict())
    _maybe_dot(args, cert.tree)
    return EXIT_PASS


def _cmd_extract_toc(args) -> int:
    cert = _load_cert(args.cert)
    gadget = _gadget_from_json(json.loads(_read(args.gadget)))
    try:
        tree = extract_toc_tree(cert, gadget)
    except InvalidWitnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _emit({"result": "NONE"})
        return EXIT_NEGATIVE
    _emit(tree.to_json_dict())
    _maybe_dot(args, tree)
    return EXIT_PASS


def _cmd_lift(args) -> int:
    _emit(cert_lift(_load_cert(args.cert)).to_json_dict())
    return EXIT_PASS


def _cmd_complement_cert(args) -> int:
    _emit(cert_complement(_load_cert(args.cert)).to_json_dict())
    return EXIT_PASS


def _cmd_glp_step(args) -> int:
    out = glp_step(_load_graph(args.graph))
    _emit(out.to_json_dict())
    _maybe_dot(args, out)
    return EXIT_PASS


def _cmd_non_glp(args) -> int:
    out = non_glp_family(args.q)
    _emit(out.to_json_dict())
    _maybe_dot(args, out)
    return EXIT_PASS


def _cmd_check_4pc(args) -> int:
    data = json.loads(_read(args.matrix))
    points = data["points"]
    rows = data["distances"]
    if len(points) != 4 or len(rows) != 4 or any(len(row) != 4 for row in rows):
        raise MalformedMetricError("check-4pc takes exactly 4 points and a 4 x 4 distance matrix")
    d = {}
    for i, a in enumerate(points):
        for j, b in enumerate(points):
            d[(a, b)] = parse_rational(rows[i][j])
    verdict = four_point_classify(d, points=tuple(points))
    _emit(
        {
            "case": verdict.case_id,
            "sums": [format_rational(s) for s in verdict.sums],
        }
    )
    return EXIT_NEGATIVE if verdict.case_id == VIOLATION else EXIT_PASS


def _cmd_toc_realize(args) -> int:
    tree = toc_realizability_small(_load_toc(args.toc))
    if tree is None:
        _emit({"result": "NONE"})
        return EXIT_NEGATIVE
    _emit(tree.to_json_dict())
    _maybe_dot(args, tree)
    return EXIT_PASS


def _random_tree(rng: random.Random, n_leaves: int) -> WeightedTree:
    """Random topology by leaf insertion, integer weights in [1, 20]."""
    edges = [("L0", "L1", Fraction(rng.randint(1, 20)))]
    internals = 0
    for k in range(2, n_leaves):
        leaf = f"L{k}"
        idx = rng.randrange(len(edges))
        u, v, w = edges.pop(idx)
        mid = f"I{internals}"
        internals += 1
        lo = Fraction(rng.randint(1, int(w) - 1)) if w > 1 else w / 2
        edges.append((u, mid, lo))
        edges.append((mid, v, w - lo))
        edges.append((mid, leaf, Fraction(rng.randint(1, 20))))
    labels = {f"L{i}": f"L{i}" for i in range(n_leaves)}
    return WeightedTree(edges, labels)


def _cmd_fuzz(args) -> int:
    if args.leaves > FUZZ_LEAF_CAP:
        raise CapacityError(f"--leaves {args.leaves} exceeds the fuzz cap of {FUZZ_LEAF_CAP}")
    rng = random.Random(args.seed)
    quartets = 0
    violations = 0
    lemma_failures = 0
    for _ in range(args.trees):
        n = rng.randint(4, args.leaves)
        tree = _random_tree(rng, n)
        leaves = tree.labels()
        for quad in itertools.combinations(leaves, 4):
            verdict = classify_leaf_quartet(tree, *quad)
            quartets += 1
            if verdict.case_id == VIOLATION:
                violations += 1
        if n >= 6:
            a1, a2, b1, b2, x, y = rng.sample(leaves, 6)
            if check_split_lemma(tree, a1, a2, b1, b2, x, y):
                lhs = tree.distance(a1, b1) + tree.distance(a2, b2)
                rhs = tree.distance(a1, b2) + tree.distance(a2, b1)
                if lhs != rhs:
                    lemma_failures += 1
        if n >= 5:
            a1, a2, b, c, x = rng.sample(leaves, 5)
            if check_twins_lemma(tree, a1, a2, b, c, x):
                if not tree.distance(a2, b) < tree.distance(a2, c):
                    lemma_failures += 1
    _emit(
        {
            "trees": args.trees,
            "quartets": quartets,
            "violations": violations,
            "lemma_failures": lemma_failures,
        }
    )
    return EXIT_PASS if violations == 0 and lemma_failures == 0 else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leafpower",
        description="Leaf powers, pairwise compatibility graphs, and GLP(q) tooling",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **files):
        sub = subs.add_parser(name)
        for arg, help_text in files.items():
            sub.add_argument(arg, help=help_text)
        if name in _DOT_COMMANDS:
            sub.add_argument("--emit-dot", metavar="PATH", help="also write a DOT rendering")
        sub.set_defaults(fn=fn)
        return sub

    add("verify", _cmd_verify, graph="graph JSON path", cert="certificate JSON path")

    sub = add("recognize", _cmd_recognize, graph="graph JSON path")
    sub.add_argument("-q", type=int, required=True, help="order of the hierarchy")
    sub.add_argument("--max-leaves", type=_positive_int, help="override the size cap")

    sub = add("leaf-rank", _cmd_leaf_rank, graph="graph JSON path")
    sub.add_argument("--max-leaves", type=_positive_int)
    sub.add_argument("--ceiling", type=_positive_int, help="give up above this k")

    sub = add("k-leaf-power", _cmd_k_leaf_power, graph="graph JSON path")
    sub.add_argument("-k", type=int, required=True)
    sub.add_argument("--max-leaves", type=_positive_int)

    add("gen-gs", _cmd_gen_gs, toc="TOC text path")
    add("make-leafroot", _cmd_make_leafroot, toc="TOC text path", tree="tree JSON path")
    add("extract-toc", _cmd_extract_toc, cert="certificate JSON path", gadget="gadget JSON path")
    add("lift", _cmd_lift, cert="certificate JSON path")
    add("complement-cert", _cmd_complement_cert, cert="certificate JSON path")
    add("glp-step", _cmd_glp_step, graph="graph JSON path")

    sub = add("non-glp", _cmd_non_glp)
    sub.add_argument("q", type=int)

    add("check-4pc", _cmd_check_4pc, matrix="distance matrix JSON path")
    add("toc-realize", _cmd_toc_realize, toc="TOC text path")

    sub = subs.add_parser("fuzz")
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--trees", type=_positive_int, default=100)
    sub.add_argument("--leaves", type=_int_at_least(4), default=8)
    sub.set_defaults(fn=_cmd_fuzz)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (CapacityError, CeilingExceededError) as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (LeafPowerError, ValueError, TypeError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a bug, never an answer
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
