"""Batch command-line front end.

Machine-readable JSON goes to stdout, diagnostics to stderr.  Every answer
leaves through `_answer`: no answer prints ``{"result": "NONE"}`` and exits
1; an answer writes its DOT rendering first, when ``--emit-dot`` asks for
one, so that a failed write leaves stdout empty, then prints its JSON and
exits 0.  `verify`, `check-4pc` and `fuzz` print their own PASS/FAIL and
VIOLATION payloads.  Exit codes: 0 success/PASS, 1 valid negative answer
(NONE/FAIL), 2 usage or format error, 3 capacity or k ceiling exceeded, 4
internal error (a failed self-check or any other unexpected exception: a
bug, never an answer).  Rationals are read as "p/q" or decimal strings,
with no exponent, and serialized as "p/q" strings.
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

# every input file, by the name of the argument that gives its path ("-" is
# stdin): its help text and the reader that parses its text
_INPUTS = {
    "graph": ("graph JSON path", SimpleGraph.from_json),
    "tree": ("tree JSON path", WeightedTree.from_json),
    "cert": ("certificate JSON path", GlpCertificate.from_json),
    "toc": ("TOC text path", TocInstance.from_text),
    "gadget": ("gadget JSON path", lambda text: GadgetGraph.from_json_dict(json.loads(text))),
    "matrix": ("distance matrix JSON path", json.loads),
}


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _emit(data) -> None:
    json.dump(data, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _dot(result) -> str:
    """Graphviz text of a result: a certificate draws its tree, a gadget its
    graph."""
    if isinstance(result, GlpCertificate):
        result = result.tree
    elif isinstance(result, GadgetGraph):
        result = result.graph
    lines = ["graph {"]
    if isinstance(result, WeightedTree):
        labeled = set(result.leaf_labels.values())
        for v in result.vertices:
            shape = "circle" if v in labeled else "point"
            lines.append(f'  "{v}" [shape={shape}];')
        for u, v, w in result.edges:
            lines.append(f'  "{u}" -- "{v}" [label="{format_rational(w)}"];')
    else:
        for v in result.vertices:
            lines.append(f'  "{v}";')
        for u, v in result.edge_list():
            lines.append(f'  "{u}" -- "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _answer(args, result) -> int:
    """Emit a subcommand's answer: ``None`` is the negative answer NONE;
    anything else is a dict or has ``to_json_dict``."""
    if result is None:
        _emit({"result": "NONE"})
        return EXIT_NEGATIVE
    if args.emit_dot:
        with open(args.emit_dot, "w") as fh:
            fh.write(_dot(result))
    _emit(result if isinstance(result, dict) else result.to_json_dict())
    return EXIT_PASS


# --- subcommand bodies: each takes the parsed arguments and its inputs ------


def _verify(args, graph, cert) -> int:
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


def _recognize(args, graph) -> int:
    return _answer(args, recognize_glp(graph, args.q, _limits(args)))


def _leaf_rank(args, graph) -> int:
    rank = leaf_rank(graph, _limits(args))
    return _answer(args, None if rank is None else {"leaf_rank": rank})


def _k_leaf_power(args, graph) -> int:
    return _answer(args, is_k_leaf_power(graph, args.k, _limits(args)))


def _gen_gs(args, toc) -> int:
    return _answer(args, build_gs(toc))


def _make_leafroot(args, toc, tree) -> int:
    return _answer(args, leaf_root_from_tree(tree, toc))


def _extract_toc(args, cert, gadget) -> int:
    try:
        tree = extract_toc_tree(cert, gadget)
    except InvalidWitnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        tree = None
    return _answer(args, tree)


def _lift(args, cert) -> int:
    return _answer(args, cert_lift(cert))


def _complement_cert(args, cert) -> int:
    return _answer(args, cert_complement(cert))


def _glp_step(args, graph) -> int:
    return _answer(args, glp_step(graph))


def _non_glp(args) -> int:
    return _answer(args, non_glp_family(args.q))


def _check_4pc(args, matrix) -> int:
    points = matrix["points"]
    rows = matrix["distances"]
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


def _toc_realize(args, toc) -> int:
    return _answer(args, toc_realizability_small(toc))


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


def _fuzz(args) -> int:
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

    def add(name, fn, *inputs, dot=False):
        """Declare a subcommand: ``fn(args, **inputs)`` runs it on the parsed
        input files, and ``dot`` offers ``--emit-dot`` for its answer."""
        sub = subs.add_parser(name)
        for arg in inputs:
            sub.add_argument(arg, help=_INPUTS[arg][0])
        if dot:
            sub.add_argument("--emit-dot", metavar="PATH", help="also write a DOT rendering")
        sub.set_defaults(fn=fn, inputs=inputs, emit_dot=None)
        return sub

    add("verify", _verify, "graph", "cert")

    sub = add("recognize", _recognize, "graph", dot=True)
    sub.add_argument("-q", type=int, required=True, help="order of the hierarchy")
    sub.add_argument("--max-leaves", type=_positive_int, help="override the size cap")

    sub = add("leaf-rank", _leaf_rank, "graph")
    sub.add_argument("--max-leaves", type=_positive_int)
    sub.add_argument("--ceiling", type=_positive_int, help="give up above this k")

    sub = add("k-leaf-power", _k_leaf_power, "graph", dot=True)
    sub.add_argument("-k", type=int, required=True)
    sub.add_argument("--max-leaves", type=_positive_int)

    add("gen-gs", _gen_gs, "toc", dot=True)
    add("make-leafroot", _make_leafroot, "toc", "tree", dot=True)
    add("extract-toc", _extract_toc, "cert", "gadget", dot=True)
    add("lift", _lift, "cert")
    add("complement-cert", _complement_cert, "cert")
    add("glp-step", _glp_step, "graph", dot=True)

    sub = add("non-glp", _non_glp, dot=True)
    sub.add_argument("q", type=int)

    add("check-4pc", _check_4pc, "matrix")
    add("toc-realize", _toc_realize, "toc", dot=True)

    sub = add("fuzz", _fuzz)
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--trees", type=_positive_int, default=100)
    sub.add_argument("--leaves", type=_int_at_least(4), default=8)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        inputs = {arg: _INPUTS[arg][1](_read(getattr(args, arg))) for arg in args.inputs}
        return args.fn(args, **inputs)
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
