"""Span recorder for the traced benchmark run.

The recorder wraps degseq's public functions from outside the package: every
module namespace under ``degseq`` that binds a wrapped function gets the
wrapper (so ``degseq.exact.graph_gf`` and ``degseq.cli.graph_gf`` are both
seen), and the series methods are replaced on their classes.  Spans
(name, start, end, parent) are kept in flat arrays in memory; self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import Counter

# (module, attribute, span name): functions that get a span and a call count.
SPANNED_FUNCTIONS = (
    ("degseq.sampler", "census", "sampler.census"),
    ("degseq.sampler", "sample_multigraph", "sampler.sample_multigraph"),
    ("degseq.sampler", "sample_simple", "sampler.sample_simple"),
    ("degseq.sampler", "validate_structure", "sampler.validate_structure"),
    ("degseq.sampler", "compensation_factor", "sampler.compensation_factor"),
    ("degseq.sampler", "run_experiment", "sampler.run_experiment"),
    ("degseq.sampler", "write_samples_csv", "sampler.write_samples_csv"),
    ("degseq.exact", "graph_gf", "exact.graph_gf"),
    ("degseq.exact", "graph_gf_value", "exact.graph_gf_value"),
    ("degseq.exact", "joint_pmf", "exact.joint_pmf"),
    ("degseq.exact", "census_to_json", "exact.census_to_json"),
    ("degseq.exact", "brute_force_multigraph", "exact.brute_force_multigraph"),
    ("degseq.cli", "main", "cli.main"),
    ("degseq.asymptotics", "saddle_data", "asymptotics.saddle_data"),
    ("degseq.asymptotics", "solve_zeta", "asymptotics.solve_zeta"),
    ("degseq.asymptotics", "check_path_positive", "asymptotics.check_path_positive"),
    ("degseq.asymptotics", "contour_extract", "asymptotics.contour_extract"),
    ("degseq.asymptotics", "asymptotic_log_gf", "asymptotics.asymptotic_log_gf"),
    ("degseq.stats", "standardize", "stats.standardize"),
    ("degseq.stats", "moment_report", "stats.moment_report"),
    ("degseq.stats", "gaussian_check", "stats.gaussian_check"),
    ("degseq.stats", "chi_square_gof", "stats.chi_square_gof"),
)

# (module, class, method, span name): methods that get a span and a call count.
SPANNED_METHODS = (
    ("degseq.series", "TruncatedSeries", "exp", "series.exp"),
    ("degseq.series", "TruncatedSeries", "__pow__", "series.pow"),
    ("degseq.series", "TruncatedSeries", "__mul__", "series.mul"),
)

# Hot inner calls: counted only, since a span per call would cost more than
# the call.  MPoly products also add |a|*|b| to series.term_products.
COUNTED_METHODS = (
    ("degseq.series", "MPoly", "__mul__", "series.mpoly_mul"),
    ("degseq.unionfind", "UnionFind", "union", "unionfind.union"),
)

# Counts that depend only on the workload inputs, so they must repeat exactly.
EXACT_COUNTS = (
    "series.mpoly_mul.calls",
    "series.term_products",
    "exact.graph_gf.calls",
    "sampler.sample_multigraph.calls",
    "asymptotics.solve_zeta.calls",
)

OFF, COUNTS, SPANS = 0, 1, 2


class Recorder:
    """Call counts and spans of the wrapped functions.

    ``mode`` is OFF (wrappers pass straight through), COUNTS (counts only) or
    SPANS (counts and spans).
    """

    def __init__(self):
        self.mode = OFF
        self.names = []
        self._name_ids = {}
        self.counts = Counter()
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self._restore = []

    def reset(self, mode):
        self.mode = mode
        self.counts.clear()
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        del self._stack[:]

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span_wrapper(self, name, fn):
        name_id = self._name_id(name)
        counts, stack = self.counts, self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            mode = self.mode
            if mode == OFF:
                return fn(*args, **kwargs)
            counts[name] += 1
            if mode == COUNTS:
                return fn(*args, **kwargs)
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def count_wrapper(self, name, fn):
        counts = self.counts
        products = name == "series.mpoly_mul"

        def wrapper(self_, *args):
            if self.mode != OFF:
                counts[name] += 1
                if products and hasattr(args[0], "terms"):
                    counts["series.term_products"] += len(self_.terms) * len(args[0].terms)
            return fn(self_, *args)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self):
        """Patch every degseq namespace binding a wrapped function, and the
        wrapped methods on their classes.  Idempotent until uninstall()."""
        if self._restore:
            return
        for mod_name in {entry[0] for entry in SPANNED_FUNCTIONS + SPANNED_METHODS + COUNTED_METHODS}:
            importlib.import_module(mod_name)
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "degseq" or name.startswith("degseq."))
        ]
        for mod_name, attr, span in SPANNED_FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self.span_wrapper(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, attr, span in SPANNED_METHODS + COUNTED_METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[attr]
            make = self.span_wrapper if (mod_name, cls_name, attr, span) in SPANNED_METHODS else self.count_wrapper
            self._restore.append((cls, attr, original))
            setattr(cls, attr, make(span, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    def self_times(self):
        """Self seconds summed per span name."""
        n = len(self.span_start)
        child = [0.0] * n
        durations = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += durations[i]
        out = Counter()
        for i in range(n):
            out[self.names[self.span_name[i]]] += durations[i] - child[i]
        return out

    def accepted_pairings(self):
        """(accepted graphs, pairings drawn): a pairing is accepted when it is
        drawn outside sample_simple, or when sample_simple returns it."""
        multi = self._name_ids.get("sampler.sample_multigraph")
        simple = self._name_ids.get("sampler.sample_simple")
        drawn = inside_simple = 0
        for i in range(len(self.span_start)):
            if self.span_name[i] == multi:
                drawn += 1
                parent = self.span_parent[i]
                if parent >= 0 and self.span_name[parent] == simple:
                    inside_simple += 1
        accepted = (drawn - inside_simple) + self.counts["sampler.sample_simple"]
        return accepted, drawn

    def exact_counts(self):
        """The EXACT_COUNTS metrics from the current counts."""
        return {key: self.counts.get(key[: -len(".calls")] if key.endswith(".calls") else key, 0)
                for key in EXACT_COUNTS}

    def dump(self, path):
        """Write the spans as JSON: a name table and four parallel lists."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.span_name.tolist(),
                    "parent": self.span_parent.tolist(),
                    "start": self.span_start.tolist(),
                    "end": self.span_end.tolist(),
                },
                fh,
            )
