"""Spans and counters recorded around the public functions of each layer.

A traced pass replaces, in every loaded `schurmult.*` module, each attribute
that holds one of the functions in `TARGETS` by a wrapper that records a span
(name, start, end, parent) and updates the layer's counters from the call's
arguments or return value.  Because the registry, the CLI and the other
layers call these functions through their module attributes, the wrappers see
every call.  Nothing in the program itself changes; the original functions
are put back after the pass.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

# Per-layer metrics in output order: name -> unit.  Every name must also be
# listed under "per_layer" in BENCHMARK.json.
UNITS = {
    "symbols.discrete_derivative.calls": "count",
    "symbols.discrete_derivative.self_s": "s",
    "symbols.limits_report.self_s": "s",
    "hankel.build_hankel.self_s": "s",
    "hankel.s1_estimate.calls": "count",
    "hankel.s1_estimate.self_s": "s",
    "hankel.svd_cells": "count",
    "hankel.rank_one_geom.self_s": "s",
    "besov.symbol_series.self_s": "s",
    "besov.besov_norm.self_s": "s",
    "besov.fft_points": "count",
    "medgraph.graph_build.self_s": "s",
    "medgraph.dist_mib": "MiB",
    "medgraph.median_complex.self_s": "s",
    "medgraph.median_complex.vertices": "count",
    "medgraph.stable_median_table.self_s": "s",
    "medgraph.median.calls": "count",
    "medgraph.median.self_s": "s",
    "medgraph.mizuta_vectors.self_s": "s",
    "medgraph.serre.self_s": "s",
    "mlab.radial_kernel.self_s": "s",
    "mlab.cb_norm_sdp.calls": "count",
    "mlab.cb_norm_sdp.self_s": "s",
    "mlab.cb_norm_sdp.inner_iterations": "count",
    "mlab.cb_norm_sdp.levels": "count",
    "mlab.cb_norm_sdp.capped_levels": "count",
    "mlab.cb_norm_sdp.eigh_gunits": "1e9",
    "mlab.sandwich_check.self_s": "s",
    "mlab.tree_product_witness.self_s": "s",
    "mlab.tree_product_witness.cells": "count",
    "mlab.median_witness.self_s": "s",
    "mlab.median_witness.cells": "count",
    "mlab.separable_multiradial_T.self_s": "s",
    "bench.run_manifest.self_s": "s",
    "bench.write_reports.self_s": "s",
    "bench.report_kib": "KiB",
    "bench.rows": "count",
    "cli.main.self_s": "s",
    "serialize.to_json.self_s": "s",
    "serialize.json_kib": "KiB",
}

# Counters that must repeat exactly from one pass to the next.  Report sizes
# are left out: the JSON reports carry wall times, whose digits vary.
EXACT_COUNTS = tuple(k for k in UNITS
                     if not k.endswith(".self_s") and k != "bench.report_kib")


def _svd_cells(c, args, kwargs, out):
    # s1_estimate takes one SVD per section size, each of a K x K section
    c["hankel.svd_cells"] += sum(k * k for k in out.sizes)


def _fft_points(c, args, kwargs, out):
    n_max = kwargs.get("n_max", args[2] if len(args) > 2 else None)
    grid = kwargs.get("grid", args[3] if len(args) > 3 else None)
    c["besov.fft_points"] += (n_max + 1) * grid


def _dist_mib(c, args, kwargs, out):
    c["medgraph.dist_mib"] += out.size * out.size * 4 / 2**20


def _complex_vertices(c, args, kwargs, out):
    c["medgraph.median_complex.vertices"] += out.graph.size


def _sdp_counts(c, args, kwargs, out):
    kernel = args[0] if args else kwargs["kernel"]
    n = kernel.size if hasattr(kernel, "graph") else len(kernel)
    c["mlab.cb_norm_sdp.inner_iterations"] += out.iterations
    c["mlab.cb_norm_sdp.levels"] += len(out.trace)
    c["mlab.cb_norm_sdp.capped_levels"] += sum(t[1] == "cap" for t in out.trace)
    # one eigendecomposition of the doubled 2n x 2n matrix per inner iteration
    c["mlab.cb_norm_sdp.eigh_gunits"] += out.iterations * (2 * n) ** 3 / 1e9


def _cells(name):
    def count(c, args, kwargs, out):
        c[name] += out.detail["cells"]
    return count


def _run_rows(c, args, kwargs, out):
    c["bench.rows"] += len(out.rows)


def _report_kib(c, args, kwargs, out):
    c["bench.report_kib"] += sum(p.stat().st_size for p in out) / 1024


def _json_kib(c, args, kwargs, out):
    c["serialize.json_kib"] += len(out) / 1024


# (module, function, span name, counter or None, count only outermost call).
# The outermost flag keeps cb_result_to_json, which embeds witness_to_json,
# from counting the witness bytes twice.
TARGETS = (
    ("symbols", "discrete_derivative", "symbols.discrete_derivative", None, False),
    ("symbols", "limits_report", "symbols.limits_report", None, False),
    ("hankel", "build_hankel", "hankel.build_hankel", None, False),
    ("hankel", "s1_estimate", "hankel.s1_estimate", _svd_cells, False),
    ("hankel", "rank_one_geom", "hankel.rank_one_geom", None, False),
    ("besov", "symbol_series", "besov.symbol_series", None, False),
    ("besov", "besov_norm", "besov.besov_norm", _fft_points, False),
    ("medgraph", "graph_from_edges", "medgraph.graph_build", _dist_mib, False),
    ("medgraph", "tree_ball", "medgraph.graph_build", None, False),
    ("medgraph", "product_graph", "medgraph.graph_build", None, False),
    ("medgraph", "attach_ray", "medgraph.graph_build", None, False),
    ("medgraph", "cayley_ball", "medgraph.graph_build", None, False),
    ("medgraph", "coset_tree", "medgraph.graph_build", None, False),
    ("medgraph", "median_complex", "medgraph.median_complex", _complex_vertices, False),
    ("medgraph", "stable_median_table", "medgraph.stable_median_table", None, False),
    ("medgraph", "median", "medgraph.median", None, False),
    ("medgraph", "mizuta_vectors", "medgraph.mizuta_vectors", None, False),
    ("medgraph", "serre_embedding", "medgraph.serre", None, False),
    ("medgraph", "serre_shift", "medgraph.serre", None, False),
    ("mlab", "radial_kernel", "mlab.radial_kernel", None, False),
    ("mlab", "cb_norm_sdp", "mlab.cb_norm_sdp", _sdp_counts, False),
    ("mlab", "sandwich_check", "mlab.sandwich_check", None, False),
    ("mlab", "tree_product_witness", "mlab.tree_product_witness",
     _cells("mlab.tree_product_witness.cells"), False),
    ("mlab", "median_witness", "mlab.median_witness",
     _cells("mlab.median_witness.cells"), False),
    ("mlab", "separable_multiradial_T", "mlab.separable_multiradial_T", None, False),
    ("bench", "run_manifest", "bench.run_manifest", _run_rows, False),
    ("bench", "write_reports", "bench.write_reports", _report_kib, False),
    ("serialize", "witness_to_json", "serialize.to_json", _json_kib, True),
    ("serialize", "cb_result_to_json", "serialize.to_json", _json_kib, True),
)


class Tracer:
    """Spans kept in memory as [id, parent id, name, start, end]."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []
        self._patched = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        record = [len(self.spans), parent, name, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(record[0])
        return record

    def _close(self, record):
        record[4] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _wrap(self, fn, name, counter, outermost):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(record)
            nested = record[1] >= 0 and self.spans[record[1]][2] == name
            if counter is not None and not (outermost and nested):
                counter(self.counts, args, kwargs, out)
            self.counts[name + ".calls"] += 1
            return out
        return traced

    def install(self):
        """Wrap every target at every schurmult module attribute bound to it."""
        modules = [m for k, m in sys.modules.items()
                   if k == "schurmult" or k.startswith("schurmult.")]
        for module, func, name, counter, outermost in TARGETS:
            original = getattr(sys.modules["schurmult." + module], func)
            wrapper = self._wrap(original, name, counter, outermost)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def metrics(self, first_span=0):
        """Self time per span name from `first_span` on, plus the counters."""
        spans = self.spans[first_span:]
        child_time = defaultdict(float)
        for sid, parent, _, start, end in spans:
            if parent >= first_span:
                child_time[parent] += end - start
        self_s = defaultdict(float)
        for sid, _, name, start, end in spans:
            self_s[name] += (end - start) - child_time[sid]
        out = {}
        for key in UNITS:
            if key.endswith(".self_s"):
                out[key] = self_s[key[: -len(".self_s")]]
            else:
                out[key] = self.counts[key]
        return out

    def reset_counts(self):
        self.counts = defaultdict(float)

    def dump(self, path):
        """Write every span with its parent link, then forget nothing."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans}, fh)
