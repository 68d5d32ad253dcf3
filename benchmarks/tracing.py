"""Spans and work counters recorded around the library's public functions.

The wrappers live in the benchmark, not in the library: :meth:`Tracer.install`
replaces every binding of each traced function in the ``leafpower``
modules (modules such as ``recognition`` and ``reductions`` import some of
them by name) and :meth:`Tracer.uninstall` puts the originals back.  A span
is ``(name, start, end, parent, instance)``; spans stay in memory until the
benchmark writes them out.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, attribute, span name, counter hook); a dotted attribute is a method
TRACED = (
    ("leafpower.exactlp", "find_feasible_point", "exactlp.find_feasible_point", "lp"),
    ("leafpower.exactlp", "rational_rank", "exactlp.rational_rank", None),
    ("leafpower.recognition", "recognize_glp", "recognition.recognize_glp", "verdict"),
    ("leafpower.recognition", "graph_automorphisms", "recognition.graph_automorphisms", "autos"),
    ("leafpower.recognition", "is_k_leaf_power", "recognition.is_k_leaf_power", None),
    ("leafpower.recognition", "leaf_rank", "recognition.leaf_rank", None),
    ("leafpower.tree_metric", "WeightedTree.vertex_distance", "tree_metric.WeightedTree.vertex_distance", None),
    ("leafpower.tree_metric", "WeightedTree.distance_matrix", "tree_metric.WeightedTree.distance_matrix", None),
    ("leafpower.glp_core", "integerize_certificate_info", "glp_core.integerize_certificate_info", "basic"),
    ("leafpower.glp_core", "graph_from_certificate", "glp_core.graph_from_certificate", None),
    ("leafpower.glp_core", "verify_certificate", "glp_core.verify_certificate", None),
    ("leafpower.glp_core", "is_chordal", "glp_core.is_chordal", "chordal"),
    ("leafpower.reductions", "build_gs", "reductions.build_gs", None),
    ("leafpower.reductions", "leaf_root_from_tree", "reductions.leaf_root_from_tree", None),
    ("leafpower.reductions", "extract_toc_tree", "reductions.extract_toc_tree", None),
)
TOPOLOGIES = ("leafpower.recognition", "iter_topologies")
INSTANCE = "bench.instance"


def _count(counts, hook, args, result):
    if hook == "lp":
        counts["lp_calls"] += 1
        counts["lp_rows"] += len(args[1])
        counts["lp_vars"] += args[0]
        counts["lp_feasible"] += result is not None
    elif hook == "verdict":
        counts["recognize_yes" if result is not None else "recognize_no"] += 1
    elif hook == "autos":
        counts["automorphisms"] += len(result)
    elif hook == "basic":
        counts["basic_hits"] += result.basic
    elif hook == "chordal":
        counts["chordal_rejects"] += not result


class Tracer:
    """Collects spans and per-instance work counters while installed."""

    def __init__(self):
        self.spans = []
        self.counts = {}  # instance id -> Counter
        self.instance = None
        self._stack = []
        self._saved = []

    # -- spans -------------------------------------------------------------

    def span(self, name, fn, args=(), kwargs=None, hook=None):
        spans = self.spans
        idx = len(spans)
        spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            self._stack.pop()
            spans[idx] = (name, start, end, parent, self.instance)
        if hook:
            _count(self.counts[self.instance], hook, args, result)
        return result

    def run_instance(self, instance_id, fn, *args):
        """Run one benchmark instance under a root span."""
        self.instance = instance_id
        self.counts[instance_id] = Counter()
        try:
            return self.span(INSTANCE, fn, args)
        finally:
            self.instance = None

    # -- patching ----------------------------------------------------------

    def _wrap(self, name, fn, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.span(name, fn, args, kwargs, hook)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_topologies(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            counts = tracer.counts[tracer.instance]
            for item in fn(*args, **kwargs):
                counts["topologies"] += 1
                yield item

        return wrapper

    def _replace_everywhere(self, original, replacement):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "leafpower" and not mod_name.startswith("leafpower."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self):
        for mod_name, attr, name, hook in TRACED:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(owner, cls_name)
                original = vars(owner)[meth]
                self._saved.append((owner, meth, original))
                setattr(owner, meth, self._wrap(name, original, hook))
            else:
                original = getattr(owner, attr)
                self._replace_everywhere(original, self._wrap(name, original, hook))
        module = sys.modules[TOPOLOGIES[0]]
        original = getattr(module, TOPOLOGIES[1])
        self._replace_everywhere(original, self._wrap_topologies(original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def layer_summary(spans) -> dict:
    """Per span name: calls, inclusive time and self time (seconds).

    Self time is a span's duration minus the durations of its direct
    children; the run is single-threaded, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    summary = {}
    for idx, (name, start, end, _, _) in enumerate(spans):
        row = summary.setdefault(name, {"calls": 0, "time_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["time_s"] += end - start
        row["self_s"] += end - start - child_time[idx]
    return summary
