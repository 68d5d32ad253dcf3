"""leafpower benchmark: one workload, one process, one instance at a time.

Usage (from the root of a checkout)::

    python3 benchmarks/run.py --workload integerize --seed 1 --seconds 30 --trace 0

The inputs are generated from ``--seed`` by ``gen.py`` as blocks that share
one mix of instance kinds; the library only receives those inputs.  The
loop is closed with a single caller: each instance starts when the previous
one returns.  Whole blocks run until the instances' own time reaches
``--seconds`` and at least 100 instances have run; each block run gets
freshly built library objects.  Every output is checked by an oracle
outside the timed region; an instance that raises counts as failed.

Times are reported at a reference host speed.  The host shares its cores
with other tenants and its speed drifts by a quarter to a half over tens
of seconds, in CPU time as much as in wall time.  So a fixed standard-library
probe (:class:`HostProbe`) runs between instances, outside their time, and
every time is scaled by the probe's reference time over its mean time
around it.  The times as measured are printed and recorded too, as
``raw.*``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
block twice, untraced and then traced, and reports the per-layer metrics
of the traced runs, with the tracing overhead measured against the
untraced ones.  Both write a JSON record (and, traced, every span) under
``benchmarks/out/``.  The last line of standard output is the result
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import gen
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 15
MIN_INSTANCES = 100
# About the time of one host-speed probe on an idle 2-core Xeon VM; times
# are reported as they would read at that host speed (see HostProbe).
PROBE_REF_S = 250e-6
# probe time after an instance, as a share of the instance's own time
PROBE_SHARE = 0.05
ANCHORS = {
    # (instance kind, counter): value when the benchmark was defined
    ("fixed-nonglp2-q2", "topologies"): 39208,
    ("fixed-nonglp2-q2", "lp_calls"): 0,
    ("fixed-edgeless7-q2", "automorphisms"): 5040,
}
COUNTERS = (
    "topologies", "lp_calls", "lp_rows", "lp_vars", "lp_feasible", "automorphisms",
    "basic_hits", "recognize_yes", "recognize_no", "chordal_rejects",
)


class Raised:
    """An exception raised by an instance, kept in place of its output."""

    def __init__(self, exc):
        self.exc = exc

    def __repr__(self):
        return f"raised {type(self.exc).__name__}: {self.exc}"


UNITS = {"throughput_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms", "setup_s": "s"}


def environment(workload, seed) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "gmpy2_importable": importlib.util.find_spec("gmpy2") is not None,
    }


def setup(workload, blocks, probe):
    """Import the library afresh and build every input, SETUP_REPEATS times,
    with a batch of host-speed probes after each repetition.

    Returns the package and the median set-up time, as timed and scaled to
    the reference host speed by the probes that follow each repetition.
    """
    build = workloads.WORKLOADS[workload][0]
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "leafpower" or m.startswith("leafpower.")]:
            del sys.modules[name]
        gc.collect()  # each repetition starts from the same heap
        start = time.perf_counter()
        lp = importlib.import_module("leafpower")
        instances = [[build(lp, spec) for spec in specs] for specs in blocks]
        times.append(time.perf_counter() - start)
        del instances
        first_probe = len(probe.times)
        probe(20)
        scaled.append(times[-1] * probe.scale(first_probe))
    if Path(lp.__file__).resolve().parent != SRC / "leafpower":
        raise SystemExit(f"leafpower was imported from {lp.__file__}, not from {SRC}")
    return lp, statistics.median(times), statistics.median(scaled)


class HostProbe:
    """Measures how fast the host runs plain Python right now.

    The host shares its cores with other tenants, and its speed drifts by
    a quarter to a half over tens of seconds; CPU time slows down with wall
    time, so no timer of the process is immune.  A probe is a fixed piece of
    standard-library work (``Fraction`` sums into a dict, the same kind of
    work the library does) that runs between instances, outside the timed
    region, with the garbage collector off so that the library's garbage
    cannot slow it.  The library cannot change what a probe does.

    :meth:`scale` is ``PROBE_REF_S`` over the mean time of the probes since
    a given one: multiplying a time measured among those probes by it gives
    the time at the reference host speed.
    """

    def __init__(self):
        self.times = []

    def __call__(self, repeats=1):
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(repeats):
                start = time.perf_counter()
                acc, table = Fraction(0), {}
                for i in range(1, 120):
                    acc += Fraction(1, i)
                    table[i] = acc
                self.times.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def scale(self, since=0):
        return PROBE_REF_S / statistics.mean(self.times[since:])


def run_block(lp, run, instances, specs, tracer=None, label=0, probe=None):
    """One block in a closed loop; returns (outputs, per-instance seconds).

    ``probe``, if given, runs after every instance, outside its time, for
    about PROBE_SHARE of that time, so that probes sample the host speed
    in proportion to the time they stand for.
    """
    outputs, latencies = [], []
    for idx, (inst, spec) in enumerate(zip(instances, specs)):
        start = time.perf_counter()
        try:
            if tracer is None:
                out = run(lp, inst, spec)
            else:
                out = tracer.run_instance(f"{label}:{idx}", run, lp, inst, spec)
        except Exception as exc:  # an instance that raises is a failed instance
            out = Raised(exc)
        latencies.append(time.perf_counter() - start)
        outputs.append(out)
        if probe is not None:
            probe(1 + int(PROBE_SHARE * latencies[-1] / PROBE_REF_S))
    return outputs, latencies


class Judge:
    """Checks every output with the workload's oracle and keeps the tally."""

    def __init__(self, lp, check):
        self.lp, self.check = lp, check
        self.attempted = 0
        self.failures = []  # (block, index, kind, reason)

    def verdict(self, spec, inst, out):
        if isinstance(out, Raised):
            return repr(out)
        try:
            return self.check(self.lp, spec, inst, out)
        except Exception as exc:  # the oracle itself could not judge the output
            return f"oracle raised {type(exc).__name__}: {exc}"

    def add_block(self, block, specs, instances, outputs):
        for idx, (spec, inst, out) in enumerate(zip(specs, instances, outputs)):
            reason = self.verdict(spec, inst, out)
            if reason is not None:
                self.failures.append((block, idx, spec["kind"], reason))
        self.attempted += len(outputs)


def percentile(values, fraction):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(lp, workload, blocks, seconds, judge, probe):
    """Blocks in order (from the first again when all have run) until
    ``seconds`` of instance time and MIN_INSTANCES instances.

    Every block run gets freshly built library objects, so nothing an
    earlier run cached on them is reused, and only one block's objects are
    alive while it runs.  Returns ``(kind, seconds, scaled seconds)`` per
    instance; the scale comes from the probes run among the block's own
    instances, so it follows the host speed from block to block.
    """
    build, run, _ = workloads.WORKLOADS[workload]
    latencies = []
    spent, k = 0.0, 0
    while spent < seconds or len(latencies) < MIN_INSTANCES:
        b = k % len(blocks)
        specs = blocks[b]
        instances = [build(lp, spec) for spec in specs]
        gc.collect()
        first_probe = len(probe.times)
        outputs, lat = run_block(lp, run, instances, specs, probe=probe)
        judge.add_block(b, specs, instances, outputs)
        scale = probe.scale(first_probe)
        latencies += [(spec["kind"], t, t * scale) for spec, t in zip(specs, lat)]
        spent += sum(lat)
        k += 1
    return latencies


def measure_traced(lp, workload, blocks, seconds, judge, probe):
    """Each block untraced, then traced, until ``seconds`` of instance time.

    Both runs of a block get freshly built library objects.  Returns the
    tracer and, keyed by whether it was traced, the instance time of every
    block run, as timed and scaled to the reference host speed.  A traced
    output that differs from the untraced one is a failure: tracing must
    not change results.
    """
    build, run, _ = workloads.WORKLOADS[workload]
    tracer = tracing.Tracer()
    times = {False: [], True: []}
    k = 0
    while not times[True] or sum(t for t, _ in times[False] + times[True]) < seconds:
        b = k % len(blocks)
        specs = blocks[b]
        for traced in (False, True):
            instances = [build(lp, spec) for spec in specs]
            gc.collect()
            first_probe = len(probe.times)
            if traced:
                tracer.install()
            try:
                outputs, lat = run_block(lp, run, instances, specs, tracer if traced else None, k, probe)
            finally:
                if traced:
                    tracer.uninstall()
            times[traced].append((sum(lat), sum(lat) * probe.scale(first_probe)))
            judge.add_block(b, specs, instances, outputs)
            if not traced:
                plain = outputs
        for idx, (p, t) in enumerate(zip(plain, outputs)):
            if not isinstance(p, Raised) and p != t:
                judge.failures.append((b, idx, specs[idx]["kind"], "traced output differs"))
        k += 1
    return tracer, times


def block_counters(tracer) -> list:
    """Work counters summed over each traced block run, in run order."""
    per_block: dict = {}
    for instance_id, counts in tracer.counts.items():
        per_block.setdefault(int(instance_id.split(":")[0]), Counter()).update(counts)
    return [per_block.get(k, Counter()) for k in range(max(per_block, default=-1) + 1)]


def anchors(tracer, specs) -> dict:
    """Pinned counters of single instances of the first block."""
    out = {}
    for (kind, counter), expected in ANCHORS.items():
        for idx, spec in enumerate(specs):
            if spec["kind"] == kind:
                got = tracer.counts[f"0:{idx}"][counter]
                out[f"{kind}.{counter}"] = {"expected": expected, "observed": got, "match": got == expected}
    return out


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(summary, totals, first, n_blocks) -> dict:
    """Per-layer metrics: means per traced block, ratios over all traced
    blocks, and the exact work counters of the first block."""
    m = {}

    def put(name, unit, value):
        m[name] = {"value": value, "unit": unit}

    def layer(name, *keys):
        row = summary.get(name, {"calls": 0, "time_s": 0.0, "self_s": 0.0})
        put(f"{name}.calls", "count", row["calls"] / n_blocks)
        for key in keys:
            put(f"{name}.{key}", "s", row[key] / n_blocks)
        return row["calls"]

    c = totals
    lp_name = "exactlp.find_feasible_point"
    layer(lp_name, "time_s")
    put(f"{lp_name}.rows", "count", c["lp_rows"] / n_blocks)
    put(f"{lp_name}.vars", "count", c["lp_vars"] / n_blocks)
    put(f"{lp_name}.feasible_ratio", "ratio", _ratio(c["lp_feasible"], c["lp_calls"]))
    layer("exactlp.rational_rank", "time_s")
    layer("recognition.recognize_glp", "self_s")
    put("recognition.recognize_glp.yes_ratio", "ratio",
        _ratio(c["recognize_yes"], c["recognize_yes"] + c["recognize_no"]))
    put("recognition.iter_topologies.yielded", "count", c["topologies"] / n_blocks)
    put("recognition.lp_per_topology", "ratio", _ratio(c["lp_calls"], c["topologies"]))
    calls = layer("recognition.graph_automorphisms", "time_s")
    put("recognition.graph_automorphisms.group_size", "count", _ratio(c["automorphisms"], calls))
    layer("recognition.is_k_leaf_power", "self_s")
    layer("recognition.leaf_rank", "time_s")
    layer("tree_metric.WeightedTree.vertex_distance", "time_s")
    layer("tree_metric.WeightedTree.distance_matrix", "time_s")
    calls = layer("glp_core.integerize_certificate_info", "self_s")
    put("glp_core.integerize_certificate_info.basic_ratio", "ratio", _ratio(c["basic_hits"], calls))
    layer("glp_core.graph_from_certificate", "time_s")
    layer("glp_core.verify_certificate", "time_s")
    calls = layer("glp_core.is_chordal", "time_s")
    put("glp_core.is_chordal.reject_ratio", "ratio", _ratio(c["chordal_rejects"], calls))
    for name in ("build_gs", "leaf_root_from_tree", "extract_toc_tree"):
        layer(f"reductions.{name}", "self_s")
    for key in COUNTERS:
        put(f"counters.{key}", "count", first[key])
    return m


def write_json(name, data):
    OUT.mkdir(exist_ok=True)
    (OUT / name).write_text(json.dumps(data, indent=1, default=str) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "leafpower" / "__init__.py").is_file():
        print(f"error: no leafpower sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = environment(args.workload, args.seed)
    blocks = gen.generate(args.workload, args.seed)
    setup_probe = HostProbe()
    lp, setup_raw_s, setup_s = setup(args.workload, blocks, setup_probe)
    judge = Judge(lp, workloads.WORKLOADS[args.workload][2])
    print(f"# {json.dumps(env)}")
    print(f"# {len(blocks)} blocks of {len(blocks[0])} instances")
    record = {"env": env}

    if args.trace == 0:
        probe = HostProbe()
        timed = measure(lp, args.workload, blocks, args.seconds, judge, probe)

        def end_to_end(latencies, setup_time):
            return {
                "throughput_per_s": len(latencies) / sum(latencies),
                "latency_p50_ms": 1000 * statistics.median(latencies),
                "latency_p90_ms": 1000 * percentile(latencies, 0.9),
                "setup_s": setup_time,
            }

        raw = end_to_end([t for _, t, _ in timed], setup_raw_s)
        scaled = end_to_end([t for _, _, t in timed], setup_s)
        metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in scaled.items()}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
        record["raw"] = raw
        record["probe"] = {
            "run": {"n": len(probe.times), "mean_ms": 1000 * statistics.mean(probe.times)},
            "setup": {"n": len(setup_probe.times), "mean_ms": 1000 * statistics.mean(setup_probe.times)},
        }
        record["timed_s"] = sum(t for _, t, _ in timed)
        by_kind: dict = {}
        for kind, _, t in timed:
            by_kind.setdefault(kind, []).append(t)
        record["latency_by_kind_ms"] = {
            kind: {"n": len(ts), "p50": 1000 * statistics.median(ts), "max": 1000 * max(ts)}
            for kind, ts in sorted(by_kind.items())
        }
    else:
        tracer, times = measure_traced(lp, args.workload, blocks, args.seconds, judge, HostProbe())
        summary = tracing.layer_summary(tracer.spans)
        per_block = block_counters(tracer)
        totals = sum(per_block, Counter())
        metrics = layer_metrics(summary, totals, per_block[0], len(times[True]))
        traced_s = sum(t for t, _ in times[True])
        # throughputs at the reference host speed, so that host drift between
        # the untraced and the traced run of a block does not read as overhead
        tp = {t: len(blocks[0]) * len(v) / sum(scaled for _, scaled in v) for t, v in times.items()}
        attributed = sum(row["self_s"] for row in summary.values())
        for name, unit, value in (
            ("trace.throughput_untraced_per_s", "1/s", tp[False]),
            ("trace.throughput_traced_per_s", "1/s", tp[True]),
            ("trace.overhead_share", "ratio", _ratio(tp[False] - tp[True], tp[False])),
            ("trace.unattributed_share", "ratio", _ratio(traced_s - attributed, traced_s)),
        ):
            metrics[name] = {"value": value, "unit": unit}
        for row in summary.values():
            row["self_share"] = _ratio(row["self_s"], traced_s)
        record.update({
            "traced_blocks": len(times[True]),
            "traced_s": traced_s,
            "overhead": {k[6:]: metrics[k]["value"] for k in metrics if k.startswith("trace.")},
            "layers": dict(sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])),
            "unattributed_s": traced_s - attributed,
            "counters_per_block": [dict(c) for c in per_block],
            "anchors": anchors(tracer, blocks[0]),
        })
        t0 = tracer.spans[0][1]
        write_json(f"spans-{args.workload}-seed{args.seed}.json", {
            "fields": ["name", "start_s", "end_s", "parent", "instance"],
            "spans": [[n, round(s - t0, 7), round(e - t0, 7), p, i] for n, s, e, p, i in tracer.spans],
        })

    failures = judge.failures
    record.update({
        "attempted": judge.attempted,
        "failed": len(failures),
        "failed_share": _ratio(len(failures), judge.attempted),
        "failures": [list(f) for f in failures[:50]],
        "metrics": metrics,
    })
    write_json(f"{args.workload}-seed{args.seed}-trace{args.trace}.json", record)

    for name, metric in metrics.items():
        print(f"{name:52s} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in record.get("raw", {}).items():
        print(f"{'raw.' + name:52s} {value:>16.6g} {UNITS[name]}  (as timed, before host-speed scaling)")
    print(f"{'failed_share':52s} {record['failed_share']:>16.6g} ratio")
    for key, anchor in record.get("anchors", {}).items():
        flag = "" if anchor["match"] else "  <-- differs from the pinned value"
        print(f"# anchor {key}: {anchor['observed']} (pinned {anchor['expected']}){flag}")
    for block, idx, kind, reason in failures[:10]:
        print(f"# FAILED block {block} instance {idx} ({kind}): {reason}")
    print(json.dumps({
        "correct": not failures,
        "attempted": judge.attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
