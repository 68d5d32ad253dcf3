"""Self-test of the benchmark harness (not of the library).

Run from the root of a checkout::

    python3 benchmarks/selftest.py

It checks that two generations from one seed are identical (and another
seed differs), that the oracles count a certificate with one altered edge
weight and an instance that raises as failures instead of dropping them,
and that the tracer reproduces the pinned work-counter anchors.  Exit code
0 means every check passed.
"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction

import gen
import run as bench
import tracing
import workloads


def tampered(lp, cert, vertex_with_neighbor):
    """The certificate with the pendant edge of one leaf made far longer
    than every threshold (and non-integral), so that leaf loses its edges."""
    tree = cert.tree
    leaf = tree.vertex_of(vertex_with_neighbor)
    total = sum(w for _, _, w in tree.edges) + cert.thresholds.thresholds[-1]
    edges = [(u, v, 10 * total + Fraction(1, 2) if leaf in (u, v) else w) for u, v, w in tree.edges]
    new_tree = lp.WeightedTree(edges, tree.leaf_labels, vertices=tree.vertices)
    return lp.GlpCertificate(new_tree, cert.thresholds)


def first_with_edges(specs, instances, graph_of):
    for spec, inst in zip(specs, instances):
        edges = graph_of(spec, inst)
        if edges:
            return spec, inst, sorted(next(iter(edges)), key=str)[0]
    raise AssertionError("no instance with an edge")


def main():
    sys.path.insert(0, str(bench.SRC))
    results = []

    def report(name, ok):
        results.append(ok)
        print(f"selftest {name}: {'PASS' if ok else 'FAIL'}")

    for workload in sorted(workloads.WORKLOADS):
        same = gen.generate(workload, 7) == gen.generate(workload, 7)
        other = gen.generate(workload, 7) != gen.generate(workload, 8)
        report(f"{workload} generation repeats per seed", same and other)

    for workload in sorted(workloads.WORKLOADS):
        build, run, check = workloads.WORKLOADS[workload]
        specs = gen.generate(workload, 7)[0]
        lp, *_ = bench.setup(workload, [specs], bench.HostProbe())
        instances = [build(lp, spec) for spec in specs]

        if workload == "integerize":
            spec, inst, vertex = first_with_edges(specs, instances, lambda s, i: s["graph"])
            out = run(lp, inst, spec)
            bad = dataclasses.replace(out, certificate=tampered(lp, out.certificate, vertex))
        elif workload == "reduction":
            spec, inst = specs[0], instances[0]
            out = run(lp, inst, spec)
            verified, cert, audit, sub = out
            bad = (verified, tampered(lp, cert, "O"), audit, sub)
        else:
            spec, inst, vertex = first_with_edges(
                specs, instances,
                lambda s, i: i.edges if s["q"] is not None and s["expect"] else (),
            )
            out = run(lp, inst, spec)
            bad = tampered(lp, out, vertex)

        judge = bench.Judge(lp, check)
        judge.add_block(0, [spec, spec], [inst, inst], [out, bad])
        report(f"{workload} oracle passes the output and fails an altered weight",
               judge.attempted == 2 and [f[1] for f in judge.failures] == [1])

        judge = bench.Judge(lp, check)
        outputs, _ = bench.run_block(lp, run, [None, inst], [spec, spec])
        judge.add_block(0, [spec, spec], [None, inst], outputs)
        report(f"{workload} an instance that raises counts as failed",
               isinstance(outputs[0], bench.Raised) and [f[1] for f in judge.failures] == [0])

    specs = gen.generate("recognize", 7)[0]
    lp, *_ = bench.setup("recognize", [specs], bench.HostProbe())
    tracer = tracing.Tracer()
    fixed = [i for i, s in enumerate(specs) if s["kind"].startswith("fixed-")]
    tracer.install()
    try:
        bench.run_block(lp, workloads.recognize_run, [workloads.recognize_build(lp, specs[i]) for i in fixed],
                        [specs[i] for i in fixed], tracer, 0)
    finally:
        tracer.uninstall()
    anchors = bench.anchors(tracer, [specs[i] for i in fixed])
    report("anchors match the pinned counters",
           len(anchors) == len(bench.ANCHORS) and all(a["match"] for a in anchors.values()))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
